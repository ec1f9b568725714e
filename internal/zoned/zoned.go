// Package zoned models zoned block devices — NVMe ZNS namespaces and
// host-managed SMR disks — the "emerging local storage" the DeLiBA-K UIFD
// driver supports alongside remote Ceph storage (paper §III-B; the authors
// ran tests on SMR disks, with ZNS in scope but out of the paper's
// evaluation).
//
// The model enforces the zoned-storage contract: sequential-only writes at
// each zone's write pointer, explicit zone state transitions
// (empty→open→closed→full), bounded open/active zone resources, zone
// resets, and ZNS zone-append with its returned allocation offset.
package zoned

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ZoneType distinguishes conventional (random-write) from sequential-only
// zones. SMR drives expose a small conventional region; ZNS namespaces are
// typically all sequential.
type ZoneType int

const (
	// Conventional zones accept writes at any offset.
	Conventional ZoneType = iota
	// SequentialRequired zones only accept writes at the write pointer.
	SequentialRequired
)

func (t ZoneType) String() string {
	if t == Conventional {
		return "conventional"
	}
	return "seq-required"
}

// ZoneState is the zone state machine (ZNS: empty, implicitly/explicitly
// opened, closed, full; reset returns to empty).
type ZoneState int

const (
	// Empty: write pointer at zone start.
	Empty ZoneState = iota
	// ImplicitOpen: opened by a write.
	ImplicitOpen
	// ExplicitOpen: opened by an open command.
	ExplicitOpen
	// Closed: open resources released, still writable (reopens implicitly).
	Closed
	// Full: write pointer at zone end (or finished explicitly).
	Full
)

func (s ZoneState) String() string {
	switch s {
	case Empty:
		return "empty"
	case ImplicitOpen:
		return "imp-open"
	case ExplicitOpen:
		return "exp-open"
	case Closed:
		return "closed"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Errors returned by the device.
var (
	ErrNotWritePointer = errors.New("zoned: write not at zone write pointer")
	ErrZoneFull        = errors.New("zoned: zone is full")
	ErrZoneBoundary    = errors.New("zoned: I/O crosses zone boundary")
	ErrTooManyOpen     = errors.New("zoned: open zone limit exceeded")
	ErrOutOfRange      = errors.New("zoned: address out of range")
	ErrReadUnwritten   = errors.New("zoned: read beyond write pointer")
)

// Zone is one zone's state.
type Zone struct {
	Index int
	Type  ZoneType
	State ZoneState
	// Start is the zone's first byte; Cap its writable capacity (≤ Size).
	Start int64
	Cap   int64
	// WP is the write pointer, relative to Start.
	WP int64
	// resets counts lifecycle churn (media-wear accounting).
	resets int
}

// Resets returns how many times the zone was reset.
func (z *Zone) Resets() int { return z.resets }

// Config describes the device geometry.
type Config struct {
	// ZoneBytes is the zone size (and capacity; ZNS cap<size is not
	// modelled separately here).
	ZoneBytes int64
	// Zones is the zone count.
	Zones int
	// ConvZones of them (the first ones) are conventional.
	ConvZones int
	// MaxOpenZones bounds simultaneously open zones (0 = unbounded).
	MaxOpenZones int
	// MaxActiveZones bounds open+closed zones (0 = unbounded).
	MaxActiveZones int
}

// SMRConfig returns a host-managed SMR layout like the drives the authors
// tested: 256 MiB zones with a 1% conventional region.
func SMRConfig(zones int) Config {
	conv := zones / 100
	if conv < 1 {
		conv = 1
	}
	return Config{
		ZoneBytes:    256 << 20,
		Zones:        zones,
		ConvZones:    conv,
		MaxOpenZones: 128,
	}
}

// ZNSConfig returns a typical ZNS namespace: 2 GiB... scaled-down 64 MiB
// zones, all sequential, tight open/active limits as real controllers have.
func ZNSConfig(zones int) Config {
	return Config{
		ZoneBytes:      64 << 20,
		Zones:          zones,
		ConvZones:      0,
		MaxOpenZones:   14,
		MaxActiveZones: 28,
	}
}

// Device is a zoned block device with byte-granular bookkeeping (data
// payloads are not stored; pair with a store if contents matter).
type Device struct {
	cfg   Config
	zones []*Zone

	openCount   int // implicit+explicit open
	activeCount int // open+closed

	// Stats.
	writes, reads, appends, resetOps uint64
}

// New builds the device.
func New(cfg Config) (*Device, error) {
	if cfg.Zones <= 0 || cfg.ZoneBytes <= 0 {
		return nil, fmt.Errorf("zoned: bad geometry %+v", cfg)
	}
	if cfg.ConvZones > cfg.Zones {
		return nil, fmt.Errorf("zoned: conv zones %d > zones %d", cfg.ConvZones, cfg.Zones)
	}
	d := &Device{cfg: cfg}
	for i := 0; i < cfg.Zones; i++ {
		t := SequentialRequired
		if i < cfg.ConvZones {
			t = Conventional
		}
		d.zones = append(d.zones, &Zone{
			Index: i,
			Type:  t,
			Start: int64(i) * cfg.ZoneBytes,
			Cap:   cfg.ZoneBytes,
		})
	}
	return d, nil
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return int64(d.cfg.Zones) * d.cfg.ZoneBytes }

// Zones returns the zone count.
func (d *Device) Zones() int { return d.cfg.Zones }

// Zone returns zone i.
func (d *Device) Zone(i int) (*Zone, error) {
	if i < 0 || i >= len(d.zones) {
		return nil, ErrOutOfRange
	}
	return d.zones[i], nil
}

// ZoneOf maps a byte offset to its zone.
func (d *Device) ZoneOf(off int64) (*Zone, error) {
	if off < 0 || off >= d.Size() {
		return nil, ErrOutOfRange
	}
	return d.zones[off/d.cfg.ZoneBytes], nil
}

// OpenZones returns the currently open zone count.
func (d *Device) OpenZones() int { return d.openCount }

// Stats returns operation counters.
func (d *Device) Stats() (writes, reads, appends, resets uint64) {
	return d.writes, d.reads, d.appends, d.resetOps
}

// open transitions a zone toward open, charging resources.
func (d *Device) open(z *Zone, explicit bool) error {
	switch z.State {
	case ImplicitOpen, ExplicitOpen:
		if explicit {
			z.State = ExplicitOpen
		}
		return nil
	case Full:
		return ErrZoneFull
	}
	if d.cfg.MaxOpenZones > 0 && d.openCount >= d.cfg.MaxOpenZones {
		// Implicitly close an implicitly-open zone to make room, as ZNS
		// controllers do; if none, fail.
		if !d.closeOneImplicit() {
			return ErrTooManyOpen
		}
	}
	if z.State == Empty {
		if d.cfg.MaxActiveZones > 0 && d.activeCount >= d.cfg.MaxActiveZones {
			return ErrTooManyOpen
		}
		d.activeCount++
	}
	// Closed → open keeps active count.
	d.openCount++
	if explicit {
		z.State = ExplicitOpen
	} else {
		z.State = ImplicitOpen
	}
	return nil
}

func (d *Device) closeOneImplicit() bool {
	for _, z := range d.zones {
		if z.State == ImplicitOpen {
			z.State = Closed
			d.openCount--
			return true
		}
	}
	return false
}

// Write writes n bytes at off, enforcing the zoned contract. For
// sequential zones, off must equal the write pointer and the I/O must not
// cross the zone boundary.
func (d *Device) Write(off int64, n int) error {
	z, err := d.ZoneOf(off)
	if err != nil {
		return err
	}
	in := off - z.Start
	if in+int64(n) > z.Cap {
		return ErrZoneBoundary
	}
	if z.Type == Conventional {
		d.writes++
		return nil
	}
	if z.State == Full {
		return ErrZoneFull
	}
	if in != z.WP {
		return ErrNotWritePointer
	}
	if err := d.open(z, false); err != nil {
		return err
	}
	z.WP += int64(n)
	d.writes++
	if z.WP >= z.Cap {
		d.finish(z)
	}
	return nil
}

// Append performs a ZNS zone-append: the device picks the offset (the
// current write pointer) and returns it. Zone is addressed by index.
func (d *Device) Append(zone int, n int) (off int64, err error) {
	z, err := d.Zone(zone)
	if err != nil {
		return 0, err
	}
	if z.Type == Conventional {
		return 0, fmt.Errorf("zoned: append to conventional zone %d", zone)
	}
	if z.State == Full || z.WP+int64(n) > z.Cap {
		return 0, ErrZoneFull
	}
	if err := d.open(z, false); err != nil {
		return 0, err
	}
	off = z.Start + z.WP
	z.WP += int64(n)
	d.appends++
	if z.WP >= z.Cap {
		d.finish(z)
	}
	return off, nil
}

// Read validates a read: within one zone and below the write pointer for
// sequential zones.
func (d *Device) Read(off int64, n int) error {
	z, err := d.ZoneOf(off)
	if err != nil {
		return err
	}
	in := off - z.Start
	if in+int64(n) > z.Cap {
		return ErrZoneBoundary
	}
	if z.Type == SequentialRequired && in+int64(n) > z.WP {
		return ErrReadUnwritten
	}
	d.reads++
	return nil
}

// finish moves a zone to Full and releases its resources.
func (d *Device) finish(z *Zone) {
	if z.State == ImplicitOpen || z.State == ExplicitOpen {
		d.openCount--
	}
	if z.State != Empty && z.State != Full {
		d.activeCount--
	} else if z.State == Empty {
		// finished straight from empty (cap 0 edge) — nothing held.
		_ = z
	}
	z.State = Full
	z.WP = z.Cap
}

// Finish explicitly fills a zone (FINISH ZONE command).
func (d *Device) Finish(zone int) error {
	z, err := d.Zone(zone)
	if err != nil {
		return err
	}
	if z.Type == Conventional {
		return fmt.Errorf("zoned: finish on conventional zone %d", zone)
	}
	if z.State == Full {
		return nil
	}
	if z.State == Empty {
		// Empty→Full consumes no resources but must account active=0.
		z.State = Full
		z.WP = z.Cap
		return nil
	}
	d.finish(z)
	return nil
}

// Open explicitly opens a zone (OPEN ZONE command).
func (d *Device) Open(zone int) error {
	z, err := d.Zone(zone)
	if err != nil {
		return err
	}
	if z.Type == Conventional {
		return fmt.Errorf("zoned: open on conventional zone %d", zone)
	}
	return d.open(z, true)
}

// Close closes an open zone (CLOSE ZONE command), keeping it active.
func (d *Device) Close(zone int) error {
	z, err := d.Zone(zone)
	if err != nil {
		return err
	}
	switch z.State {
	case ImplicitOpen, ExplicitOpen:
		z.State = Closed
		d.openCount--
		return nil
	case Closed:
		return nil
	default:
		return fmt.Errorf("zoned: close on %v zone %d", z.State, zone)
	}
}

// Reset resets a zone to empty (RESET ZONE / SMR zone reset).
func (d *Device) Reset(zone int) error {
	z, err := d.Zone(zone)
	if err != nil {
		return err
	}
	if z.Type == Conventional {
		return fmt.Errorf("zoned: reset on conventional zone %d", zone)
	}
	switch z.State {
	case ImplicitOpen, ExplicitOpen:
		d.openCount--
		d.activeCount--
	case Closed:
		d.activeCount--
	}
	z.State = Empty
	z.WP = 0
	z.resets++
	d.resetOps++
	return nil
}

// ResetAll resets every sequential zone.
func (d *Device) ResetAll() {
	for _, z := range d.zones {
		if z.Type == SequentialRequired {
			d.Reset(z.Index)
		}
	}
}

// Report returns a zone report (REPORT ZONES), a snapshot per zone.
type Report struct {
	Index int
	Type  ZoneType
	State ZoneState
	WP    int64
}

// ReportZones lists all zones.
func (d *Device) ReportZones() []Report {
	out := make([]Report, len(d.zones))
	for i, z := range d.zones {
		out[i] = Report{Index: z.Index, Type: z.Type, State: z.State, WP: z.WP}
	}
	return out
}

// ServiceModel wraps the device with virtual-time service costs so it can
// stand in as a local block target under the UIFD driver.
type ServiceModel struct {
	Dev *Device
	eng *sim.Engine
	// Costs.
	WriteBase, ReadBase, PerKiB, ResetCost sim.Duration
	// lane serializes media access (a single actuator/flash channel set).
	lane *sim.Resource
}

// NewServiceModel wraps dev with default SMR-class service costs.
func NewServiceModel(eng *sim.Engine, dev *Device) *ServiceModel {
	return &ServiceModel{
		Dev:       dev,
		eng:       eng,
		WriteBase: 30 * sim.Microsecond,
		ReadBase:  20 * sim.Microsecond,
		PerKiB:    250 * sim.Nanosecond,
		ResetCost: 2 * sim.Millisecond,
		lane:      eng.NewResource(4),
	}
}

// SubmitWrite performs a timed write.
func (m *ServiceModel) SubmitWrite(off int64, n int, done func(error)) {
	m.timed(m.WriteBase+sim.Duration(int64(m.PerKiB)*int64(n)/1024), func() error {
		return m.Dev.Write(off, n)
	}, done)
}

// SubmitRead performs a timed read.
func (m *ServiceModel) SubmitRead(off int64, n int, done func(error)) {
	m.timed(m.ReadBase+sim.Duration(int64(m.PerKiB)*int64(n)/1024), func() error {
		return m.Dev.Read(off, n)
	}, done)
}

// SubmitReset performs a timed zone reset.
func (m *ServiceModel) SubmitReset(zone int, done func(error)) {
	m.timed(m.ResetCost, func() error { return m.Dev.Reset(zone) }, done)
}

// timed runs op on a media lane: from the next event it queues for a lane,
// holds it for cost, then releases it and reports op's outcome.
func (m *ServiceModel) timed(cost sim.Duration, op func() error, done func(error)) {
	m.eng.Schedule(0, func() {
		m.lane.AcquireFunc(1, func() {
			m.eng.Schedule(cost, func() {
				m.lane.Release(1)
				done(op())
			})
		})
	})
}
