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
