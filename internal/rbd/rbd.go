// Package rbd implements the RADOS block device mapping: a virtual disk
// image striped across fixed-size objects in a rados pool, as the Ceph RBD
// kernel driver presents it. DeLiBA-K's UIFD embeds this mapping in its
// Ceph-RBD virtual-disk driver (paper §III-B); VMs see the image through an
// SR-IOV virtual function.
package rbd

import (
	"errors"
	"fmt"

	"repro/internal/rados"
	"repro/internal/sim"
)

// ErrOutOfRange reports an access outside the image; Extents wraps it so
// callers can translate mapping failures (e.g. to -EINVAL) without string
// matching.
var ErrOutOfRange = errors.New("rbd: range outside image")

// DefaultObjectBytes is the standard RBD object size (4 MiB).
const DefaultObjectBytes = 4 << 20

// Image is a virtual disk striped over pool objects. Like the engine it
// feeds, an Image is single-threaded: its object-name memo is unsynchronised
// on purpose.
type Image struct {
	Name        string
	Size        int64
	ObjectBytes int
	Pool        *rados.Pool

	// names memoises ObjectName by object index. It is sized on first use
	// and filled lazily, so building an image costs nothing per object.
	names []string
}

// NewImage describes an image; no I/O happens until reads/writes.
func NewImage(name string, size int64, objectBytes int, pool *rados.Pool) (*Image, error) {
	if size <= 0 {
		return nil, fmt.Errorf("rbd: bad image size %d", size)
	}
	if objectBytes <= 0 {
		objectBytes = DefaultObjectBytes
	}
	if pool == nil {
		return nil, fmt.Errorf("rbd: nil pool")
	}
	return &Image{Name: name, Size: size, ObjectBytes: objectBytes, Pool: pool}, nil
}

// Objects returns the number of backing objects.
func (im *Image) Objects() int64 {
	return (im.Size + int64(im.ObjectBytes) - 1) / int64(im.ObjectBytes)
}

// ObjectName returns the backing object name for stripe index i, using the
// rbd_data naming convention. Names of the image's own objects are built
// once and then served from a memo.
func (im *Image) ObjectName(i int64) string {
	if i < 0 || i >= im.Objects() {
		return objectName(im.Name, i)
	}
	if im.names == nil {
		im.names = make([]string, im.Objects())
	}
	if im.names[i] == "" {
		im.names[i] = objectName(im.Name, i)
	}
	return im.names[i]
}

func objectName(image string, i int64) string {
	return fmt.Sprintf("rbd_data.%s.%016x", image, i)
}

// Extent is a contiguous byte range within one backing object.
type Extent struct {
	Object string
	Off    int
	Len    int
}

// Extents maps a virtual byte range to backing-object extents, appending
// them to buf; pass a reused buf[:0] to map without allocating. A mapping
// failure returns buf unchanged.
func (im *Image) Extents(buf []Extent, off int64, n int) ([]Extent, error) {
	if off < 0 || n < 0 || off+int64(n) > im.Size {
		return buf, fmt.Errorf("%w: [%d,%d) in image of %d bytes", ErrOutOfRange, off, off+int64(n), im.Size)
	}
	out := buf
	for n > 0 {
		idx := off / int64(im.ObjectBytes)
		inOff := int(off % int64(im.ObjectBytes))
		take := im.ObjectBytes - inOff
		if take > n {
			take = n
		}
		out = append(out, Extent{Object: im.ObjectName(idx), Off: inOff, Len: take})
		off += int64(take)
		n -= take
	}
	return out, nil
}

// VisitExtents maps [off, off+n) and invokes visit once per backing-object
// extent, in image order. A mapping failure returns ErrOutOfRange (wrapped)
// before any extent is visited. With stopOnErr the first visit error returns
// immediately and the remaining extents are skipped (how the kernel RBD
// target aborts a request); otherwise every extent is visited and the first
// error seen is returned (how the NBD daemons drain a request).
func (im *Image) VisitExtents(off int64, n int, stopOnErr bool, visit func(Extent) error) error {
	exts, err := im.Extents(nil, off, n)
	if err != nil {
		return err
	}
	var firstErr error
	for _, e := range exts {
		if err := visit(e); err != nil {
			if stopOnErr {
				return err
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Dev is a block-device view of an image bound to a rados client: the
// object the kernel RBD driver exposes as /dev/rbdX.
type Dev struct {
	Image  *Image
	Client *rados.Client
}

// NewDev binds an image to a client.
func NewDev(im *Image, cl *rados.Client) *Dev {
	return &Dev{Image: im, Client: cl}
}

// WriteAt stores data at the virtual offset, spanning objects as needed.
// Multi-object spans issue in parallel.
func (d *Dev) WriteAt(p *sim.Proc, off int64, data []byte) error {
	exts, err := d.Image.Extents(nil, off, len(data))
	if err != nil {
		return err
	}
	if len(exts) == 1 {
		return d.Client.Write(p, d.Image.Pool, exts[0].Object, exts[0].Off, data)
	}
	eng := d.Client.Cluster.Eng
	comps := make([]*sim.Completion, len(exts))
	pos := 0
	for i, e := range exts {
		comp := eng.NewCompletion()
		comps[i] = comp
		e := e
		chunk := data[pos : pos+e.Len]
		pos += e.Len
		eng.Spawn("rbd-write", func(sub *sim.Proc) {
			comp.Complete(nil, d.Client.Write(sub, d.Image.Pool, e.Object, e.Off, chunk))
		})
	}
	var firstErr error
	for _, c := range comps {
		if _, err := p.Await(c); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ReadAt returns n bytes at the virtual offset.
func (d *Dev) ReadAt(p *sim.Proc, off int64, n int) ([]byte, error) {
	exts, err := d.Image.Extents(nil, off, n)
	if err != nil {
		return nil, err
	}
	if len(exts) == 1 {
		return d.Client.Read(p, d.Image.Pool, exts[0].Object, exts[0].Off, exts[0].Len)
	}
	eng := d.Client.Cluster.Eng
	comps := make([]*sim.Completion, len(exts))
	for i, e := range exts {
		comp := eng.NewCompletion()
		comps[i] = comp
		e := e
		eng.Spawn("rbd-read", func(sub *sim.Proc) {
			data, err := d.Client.Read(sub, d.Image.Pool, e.Object, e.Off, e.Len)
			comp.Complete(data, err)
		})
	}
	out := make([]byte, 0, n)
	var firstErr error
	for _, c := range comps {
		v, err := p.Await(c)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if b, ok := v.([]byte); ok {
			out = append(out, b...)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
