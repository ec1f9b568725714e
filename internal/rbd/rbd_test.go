package rbd

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/rados"
	"repro/internal/sim"
)

func newPool(t *testing.T) *rados.Pool {
	t.Helper()
	eng := sim.NewEngine()
	fabric := netsim.NewFabric(eng, 5*sim.Microsecond)
	c, err := rados.NewCluster(eng, fabric, rados.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.CreateReplicatedPool("rbd", 3, 128)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestImageValidation(t *testing.T) {
	pool := newPool(t)
	if _, err := NewImage("x", 0, 0, pool); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewImage("x", 100, 0, nil); err == nil {
		t.Fatal("nil pool accepted")
	}
	im, err := NewImage("x", 100, 0, pool)
	if err != nil {
		t.Fatal(err)
	}
	if im.ObjectBytes != DefaultObjectBytes {
		t.Fatal("default object size not applied")
	}
}

func TestObjectNaming(t *testing.T) {
	pool := newPool(t)
	im, _ := NewImage("vol1", 16<<20, 4<<20, pool)
	if im.Objects() != 4 {
		t.Fatalf("Objects = %d", im.Objects())
	}
	if got := im.ObjectName(1); got != "rbd_data.vol1.0000000000000001" {
		t.Fatalf("ObjectName = %q", got)
	}
}

// TestObjectNameMemoPin pins the memoised names: exactly the rbd_data
// convention for the first, a middle and the last object, the same string
// on every call, and no allocation once a name has been built.
func TestObjectNameMemoPin(t *testing.T) {
	pool := newPool(t)
	im, _ := NewImage("vol7", 8<<30, 4<<20, pool)
	last := im.Objects() - 1
	for _, c := range []struct {
		idx  int64
		want string
	}{
		{0, "rbd_data.vol7.0000000000000000"},
		{last / 2, "rbd_data.vol7.00000000000003ff"},
		{last, "rbd_data.vol7.00000000000007ff"},
	} {
		for call := 0; call < 3; call++ {
			if got := im.ObjectName(c.idx); got != c.want {
				t.Fatalf("ObjectName(%d) call %d = %q, want %q", c.idx, call, got, c.want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { im.ObjectName(c.idx) }); allocs != 0 {
			t.Errorf("repeat ObjectName(%d) allocated %.1f/call, want 0", c.idx, allocs)
		}
	}
	// Indexes past the image still name an object, outside the memo.
	if got := im.ObjectName(last + 1); got != "rbd_data.vol7.0000000000000800" {
		t.Fatalf("ObjectName past the end = %q", got)
	}
}

// TestExtentsIntoBufferZeroAlloc pins that mapping into a caller-owned
// buffer allocates nothing once the buffer and the name memo are warm,
// for single-object and boundary-straddling ranges alike.
func TestExtentsIntoBufferZeroAlloc(t *testing.T) {
	pool := newPool(t)
	im, _ := NewImage("v", 16<<20, 4<<20, pool)
	buf, err := im.Extents(nil, 4<<20-4096, 8192)
	if err != nil || len(buf) != 2 {
		t.Fatalf("exts = %v, %v", buf, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = im.Extents(buf[:0], 100, 4096)
		buf, _ = im.Extents(buf[:0], 4<<20-4096, 8192)
	})
	if allocs != 0 {
		t.Errorf("warm Extents into a caller buffer allocated %.1f/call, want 0", allocs)
	}
	if len(buf) != 2 || buf[0].Object != im.ObjectName(0) || buf[1].Object != im.ObjectName(1) {
		t.Fatalf("exts = %+v", buf)
	}
	// Extents appends: a non-empty buf keeps its prefix.
	two, _ := im.Extents(buf[:1], 100, 10)
	if len(two) != 2 || two[0].Object != im.ObjectName(0) || two[1].Off != 100 {
		t.Fatalf("append = %+v", two)
	}
}

func TestExtentsSingleObject(t *testing.T) {
	pool := newPool(t)
	im, _ := NewImage("v", 8<<20, 4<<20, pool)
	exts, err := im.Extents(nil, 100, 4096)
	if err != nil || len(exts) != 1 {
		t.Fatalf("exts = %v, %v", exts, err)
	}
	if exts[0].Off != 100 || exts[0].Len != 4096 || exts[0].Object != im.ObjectName(0) {
		t.Fatalf("extent = %+v", exts[0])
	}
}

func TestExtentsSpanObjects(t *testing.T) {
	pool := newPool(t)
	im, _ := NewImage("v", 16<<20, 4<<20, pool)
	// 8 KiB straddling the first object boundary.
	exts, err := im.Extents(nil, 4<<20-4096, 8192)
	if err != nil || len(exts) != 2 {
		t.Fatalf("exts = %v, %v", exts, err)
	}
	if exts[0].Len != 4096 || exts[1].Len != 4096 {
		t.Fatalf("split lens: %+v", exts)
	}
	if exts[0].Object == exts[1].Object {
		t.Fatal("same object on both sides of boundary")
	}
	if exts[1].Off != 0 {
		t.Fatal("second extent must start at object head")
	}
}

func TestExtentsBoundsChecked(t *testing.T) {
	pool := newPool(t)
	im, _ := NewImage("v", 1<<20, 4<<20, pool)
	if _, err := im.Extents(nil, -1, 10); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := im.Extents(nil, 1<<20-5, 10); err == nil {
		t.Fatal("overrun accepted")
	}
}
