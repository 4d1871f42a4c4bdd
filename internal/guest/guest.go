// Package guest models the software running inside a VM: a guest kernel
// with device drivers that participate in the transplant notification
// protocol (§4.2.3), and applications that read and write real bytes in
// guest memory.
//
// The guest is deliberately hypervisor-agnostic: it talks to its memory
// through the Memory interface, which the owning hypervisor provides. When
// a VM is transplanted, the new hypervisor rebinds the guest's memory
// accessor; everything the guest ever wrote must still be there — that is
// the Guest State preservation property the tests check end to end.
package guest

import (
	"fmt"
	"slices"
	"sort"

	"hypertp/internal/hw"
)

// Memory is the guest-physical address space as exposed by whichever
// hypervisor currently runs the VM.
type Memory interface {
	// WritePage stores data at byte offset off of guest frame gfn.
	WritePage(gfn hw.GFN, off int, data []byte) error
	// WriteRecords stores a size-byte record in each page of [lo, hi):
	// fill lays out page gfn's record whole in rec and returns the byte
	// offset it goes at. It returns how many pages it wrote, in order:
	// all of them, or those before the first that failed, whose error it
	// returns.
	WriteRecords(lo, hi hw.GFN, size int, fill func(gfn hw.GFN, rec []byte) int) (int, error)
	// ReadPage loads len(dst) bytes from byte offset off of guest frame
	// gfn into dst.
	ReadPage(gfn hw.GFN, off int, dst []byte) error
	// NumPages returns the guest's page count.
	NumPages() uint64
}

// DriverState is the lifecycle state of a guest device driver.
type DriverState uint8

const (
	// DriverRunning is normal operation.
	DriverRunning DriverState = iota
	// DriverPaused: device quiesced for transplant; driver state lives
	// in guest memory and survives as Guest State.
	DriverPaused
	// DriverUnplugged: device removed ahead of transplant (the paper's
	// strategy for network devices); reinstalled by a rescan afterwards.
	DriverUnplugged
)

func (s DriverState) String() string {
	switch s {
	case DriverRunning:
		return "running"
	case DriverPaused:
		return "paused"
	case DriverUnplugged:
		return "unplugged"
	default:
		return fmt.Sprintf("driverstate(%d)", uint8(s))
	}
}

// DeviceClass describes how a device is virtualized, which determines its
// transplant strategy (§4.2.3).
type DeviceClass uint8

const (
	// DeviceEmulated devices have their emulation state translated
	// through UISR.
	DeviceEmulated DeviceClass = iota
	// DevicePassthrough devices are paused in place: the hardware stays
	// identical across transplant and the driver state is Guest State.
	DevicePassthrough
	// DeviceNetwork devices are unplugged before and rescanned after
	// transplant; the paper observed this does not break TCP
	// connections.
	DeviceNetwork
)

func (c DeviceClass) String() string {
	switch c {
	case DeviceEmulated:
		return "emulated"
	case DevicePassthrough:
		return "passthrough"
	case DeviceNetwork:
		return "network"
	default:
		return fmt.Sprintf("deviceclass(%d)", uint8(c))
	}
}

// Driver is one guest device driver participating in the transplant
// protocol.
type Driver struct {
	Name  string
	Class DeviceClass
	state DriverState
	// pauseCount / resumeCount audit protocol compliance.
	pauseCount, resumeCount, rescanCount int
}

// State returns the driver's current lifecycle state.
func (d *Driver) State() DriverState { return d.state }

// Guest is the software stack of one VM.
type Guest struct {
	Name    string
	mem     Memory
	drivers []*Driver
	// The log of everything the guest has written, so integrity can be
	// verified byte for byte after any transplant. Only bookkeeping — the
	// actual bytes live in simulated physical memory. spans holds the
	// pages whose only content is a working-set record, writes every page
	// written by Write (nil until the first), the record it held before
	// included: the two never share a page.
	spans   []span
	writes  map[hw.GFN]*pageWrites
	written int // distinct bytes the log holds
	seq     uint64
}

// span is a run of pages [lo, hi), each holding the working-set record
// seeded by c (see recordBytes).
type span struct {
	lo, hi hw.GFN
	c      uint64
}

// recordLen is the size of the record WriteWorkingSet writes per page.
const recordLen = 64

// recordOff is the offset of page gfn's working-set record.
func recordOff(gfn hw.GFN) int { return int(uint64(gfn) % (hw.PageSize4K - recordLen)) }

// recordBytes lays out the working-set record of page gfn under seed c.
func recordBytes(rec *[recordLen]byte, gfn hw.GFN, c uint64) {
	fill(rec[:], uint64(gfn)*2654435761+uint64(gfn)+c)
}

// findSpan returns the index of the first span ending after page gfn.
func (g *Guest) findSpan(gfn hw.GFN) int {
	return sort.Search(len(g.spans), func(i int) bool { return g.spans[i].hi > gfn })
}

// logSpan logs that pages [lo, hi) hold their working-set records under
// seed c: a page that writes holds takes its record there, the others go
// in as spans that cut the older ones they overlap.
func (g *Guest) logSpan(lo, hi hw.GFN, c uint64) {
	var rec [recordLen]byte
	for gfn := lo; len(g.writes) > 0 && gfn < hi; gfn++ {
		if g.writes[gfn] != nil {
			recordBytes(&rec, gfn, c)
			g.record(gfn, recordOff(gfn), rec[:])
			g.cutIn(lo, gfn, c)
			lo = gfn + 1
		}
	}
	g.cutIn(lo, hi, c)
}

// cut takes pages [lo, hi) out of the spans, cutting those it overlaps
// to its edges, and returns the index [lo, hi) now sorts at and how many
// pages it took.
func (g *Guest) cut(lo, hi hw.GFN) (at, pages int) {
	ss := g.spans
	i := g.findSpan(lo)
	j := i
	for ; j < len(ss) && ss[j].lo < hi; j++ {
		pages += int(min(ss[j].hi, hi) - max(ss[j].lo, lo))
	}
	var buf [2]span
	edges := buf[:0]
	if i < j && ss[i].lo < lo {
		edges = append(edges, span{ss[i].lo, lo, ss[i].c})
	}
	if i < j && ss[j-1].hi > hi {
		edges = append(edges, span{hi, ss[j-1].hi, ss[j-1].c})
	}
	g.spans = slices.Replace(ss, i, j, edges...)
	if len(edges) > 0 && edges[0].lo < lo {
		i++
	}
	return i, pages
}

// cutIn puts pages [lo, hi) in as a span of seed c, cutting the spans it
// overlaps and merging it with those it touches under c.
func (g *Guest) cutIn(lo, hi hw.GFN, c uint64) {
	if lo >= hi {
		return
	}
	i, pages := g.cut(lo, hi)
	g.written += recordLen * (int(hi-lo) - pages)
	ss := g.spans
	switch left, right := i > 0 && ss[i-1].hi == lo && ss[i-1].c == c, i < len(ss) && ss[i].lo == hi && ss[i].c == c; {
	case left && right:
		ss[i-1].hi = ss[i].hi
		g.spans = slices.Delete(ss, i, i+1)
	case left:
		ss[i-1].hi = hi
	case right:
		ss[i].lo = lo
	default:
		g.spans = slices.Insert(ss, i, span{lo, hi, c})
	}
}

// materialise moves page gfn's working-set record, if a span holds it,
// into writes, punching the page out of the span.
func (g *Guest) materialise(gfn hw.GFN) {
	i := g.findSpan(gfn)
	if i == len(g.spans) || g.spans[i].lo > gfn {
		return
	}
	c := g.spans[i].c
	g.cut(gfn, gfn+1)
	g.written -= recordLen
	var rec [recordLen]byte
	recordBytes(&rec, gfn, c)
	g.record(gfn, recordOff(gfn), rec[:])
}

// pageWrites is what the guest expects one page to hold: data are the
// bytes at offsets [off, off+len(data)), the hull of everything it wrote
// there, and written marks which of them it actually wrote.
type pageWrites struct {
	off     int
	data    []byte
	written []bool
}

// record notes that the guest wrote data at offset off of page gfn.
func (g *Guest) record(gfn hw.GFN, off int, data []byte) {
	if g.writes == nil {
		g.writes = make(map[hw.GFN]*pageWrites)
	}
	w := g.writes[gfn]
	if w == nil {
		w = &pageWrites{off: off}
		g.writes[gfn] = w
	}
	lo, hi := min(w.off, off), max(w.off+len(w.data), off+len(data))
	if hi-lo > len(w.data) {
		grown := pageWrites{off: lo, data: make([]byte, hi-lo), written: make([]bool, hi-lo)}
		copy(grown.data[w.off-lo:], w.data)
		copy(grown.written[w.off-lo:], w.written)
		*w = grown
	}
	copy(w.data[off-w.off:], data)
	for i := off - w.off; i < off-w.off+len(data); i++ {
		if !w.written[i] {
			w.written[i] = true
			g.written++
		}
	}
}

// New creates a guest bound to mem with the given device drivers.
func New(name string, mem Memory, drivers ...*Driver) *Guest {
	return &Guest{Name: name, mem: mem, drivers: drivers}
}

// Rebind switches the guest's memory accessor to the one provided by a new
// hypervisor. The guest itself does not notice: its state is in memory.
func (g *Guest) Rebind(mem Memory) { g.mem = mem }

// Memory returns the current accessor (nil while the VM is mid-transplant).
func (g *Guest) Memory() Memory { return g.mem }

// Drivers returns the guest's device drivers.
func (g *Guest) Drivers() []*Driver { return g.drivers }

// Driver returns the named driver, or nil.
func (g *Guest) Driver(name string) *Driver {
	for _, d := range g.drivers {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// Write stores data into guest memory and records it for later
// verification.
func (g *Guest) Write(gfn hw.GFN, off int, data []byte) error {
	if err := g.mem.WritePage(gfn, off, data); err != nil || len(data) == 0 {
		return err
	}
	g.materialise(gfn)
	g.record(gfn, off, data)
	return nil
}

// WriteWorkingSet writes a deterministic pattern across npages pages
// starting at startGFN (one 64-byte record per page, in one WriteRecords
// call), simulating an application's resident data. Each page's record
// depends only on its index and the sequence range reserved up front, so
// the log keeps the pages written as one span, not a record each. If a
// page fails, the pages before it are written and logged.
func (g *Guest) WriteWorkingSet(startGFN hw.GFN, npages int) error {
	if n := g.mem.NumPages(); npages > 0 && (uint64(startGFN) >= n || uint64(npages) > n-uint64(startGFN)) {
		return fmt.Errorf("guest %s: working set page %d beyond memory", g.Name, max(uint64(startGFN), n))
	}
	base := g.seq
	g.seq += uint64(npages)
	if npages <= 0 {
		return nil
	}
	// Page startGFN+i is seeded by base+i+1: c absorbs the i.
	c := base + 1 - uint64(startGFN)
	n, err := g.mem.WriteRecords(startGFN, startGFN+hw.GFN(npages), recordLen, func(gfn hw.GFN, rec []byte) int {
		recordBytes((*[recordLen]byte)(rec), gfn, c)
		return recordOff(gfn)
	})
	g.logSpan(startGFN, startGFN+hw.GFN(n), c)
	return err
}

// Verify re-reads every byte the guest ever wrote and reports the
// mismatch at the lowest (gfn, off). A nil return is the Guest State
// preservation property. Each written page is read once, over the hull of
// its recorded bytes, into one buffer.
func (g *Guest) Verify() error {
	gfns := make([]hw.GFN, 0, len(g.writes))
	size := recordLen
	for gfn, w := range g.writes {
		gfns = append(gfns, gfn)
		size = max(size, len(w.data))
	}
	slices.Sort(gfns)
	buf := make([]byte, size)
	var want [recordLen]byte
	k := 0
	for _, s := range g.spans {
		for ; k < len(gfns) && gfns[k] < s.lo; k++ {
			if err := g.verifyWrites(gfns[k], buf); err != nil {
				return err
			}
		}
		got := buf[:recordLen]
		for gfn := s.lo; gfn < s.hi; gfn++ {
			off := recordOff(gfn)
			if err := g.mem.ReadPage(gfn, off, got); err != nil {
				return fmt.Errorf("guest %s: verify gfn %d off %d: %w", g.Name, gfn, off, err)
			}
			recordBytes(&want, gfn, s.c)
			if string(got) != string(want[:]) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				return fmt.Errorf("guest %s: corrupt byte at gfn %d off %d: got %#x want %#x",
					g.Name, gfn, off+i, got[i], want[i])
			}
		}
	}
	for ; k < len(gfns); k++ {
		if err := g.verifyWrites(gfns[k], buf); err != nil {
			return err
		}
	}
	return nil
}

// verifyWrites checks the bytes Write logged on page gfn, reading them
// into buf.
func (g *Guest) verifyWrites(gfn hw.GFN, buf []byte) error {
	w := g.writes[gfn]
	got := buf[:len(w.data)]
	if err := g.mem.ReadPage(gfn, w.off, got); err != nil {
		return fmt.Errorf("guest %s: verify gfn %d off %d: %w", g.Name, gfn, w.off, err)
	}
	for i, want := range w.data {
		if w.written[i] && got[i] != want {
			return fmt.Errorf("guest %s: corrupt byte at gfn %d off %d: got %#x want %#x",
				g.Name, gfn, w.off+i, got[i], want)
		}
	}
	return nil
}

// WrittenBytes returns the number of distinct bytes the guest has written.
func (g *Guest) WrittenBytes() int { return g.written }

// PrepareTransplant runs the pre-transplant notification (delivered
// similarly to Azure's Scheduled Events, per the paper): passthrough
// devices are paused, network devices are unplugged, emulated devices are
// paused for state capture.
func (g *Guest) PrepareTransplant() error {
	for _, d := range g.drivers {
		switch d.Class {
		case DevicePassthrough, DeviceEmulated:
			if d.state != DriverRunning {
				return fmt.Errorf("guest %s: driver %s is %v, cannot pause", g.Name, d.Name, d.state)
			}
			d.state = DriverPaused
			d.pauseCount++
		case DeviceNetwork:
			if d.state != DriverRunning {
				return fmt.Errorf("guest %s: driver %s is %v, cannot unplug", g.Name, d.Name, d.state)
			}
			d.state = DriverUnplugged
		}
	}
	return nil
}

// CompleteTransplant runs the post-transplant notification: paused devices
// resume, unplugged devices are rediscovered by a bus rescan.
func (g *Guest) CompleteTransplant() error {
	for _, d := range g.drivers {
		switch d.state {
		case DriverPaused:
			d.state = DriverRunning
			d.resumeCount++
		case DriverUnplugged:
			d.state = DriverRunning
			d.rescanCount++
		case DriverRunning:
			return fmt.Errorf("guest %s: driver %s was never prepared", g.Name, d.Name)
		}
	}
	return nil
}

// AllDriversRunning reports whether every driver is back in normal
// operation.
func (g *Guest) AllDriversRunning() bool {
	for _, d := range g.drivers {
		if d.state != DriverRunning {
			return false
		}
	}
	return true
}

// ProtocolCounters returns (pauses, resumes, rescans) across all drivers,
// for protocol-compliance assertions in tests.
func (g *Guest) ProtocolCounters() (pauses, resumes, rescans int) {
	for _, d := range g.drivers {
		pauses += d.pauseCount
		resumes += d.resumeCount
		rescans += d.rescanCount
	}
	return
}

// DefaultDrivers returns the device complement the paper's experiments
// use: an emulated block device (remote storage), an emulated-unplugged
// network device, and a serial console — followed by one passthrough
// driver per named device. The drivers share one backing array.
func DefaultDrivers(passthrough ...string) []*Driver {
	backing := make([]Driver, 3, 3+len(passthrough))
	backing[0] = Driver{Name: "virtio-blk", Class: DeviceEmulated}
	backing[1] = Driver{Name: "virtio-net", Class: DeviceNetwork}
	backing[2] = Driver{Name: "serial", Class: DeviceEmulated}
	for _, name := range passthrough {
		backing = append(backing, Driver{Name: name, Class: DevicePassthrough})
	}
	drivers := make([]*Driver, len(backing))
	for i := range backing {
		drivers[i] = &backing[i]
	}
	return drivers
}

func fill(b []byte, seed uint64) {
	s := seed
	for i := range b {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		b[i] = byte(z ^ (z >> 27))
	}
}
