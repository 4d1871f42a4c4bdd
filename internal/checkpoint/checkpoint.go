// Package checkpoint implements the §4.5.2 "guest state saving" and
// "guest state restoring" driver operations as a durable format: a
// suspended VM is serialized — UISR platform state plus every touched
// guest page — into a self-validating byte image that can be stored, then
// restored later on *any* HyperTP-compliant hypervisor. It is the cold
// path complementing InPlaceTP (same host, live) and MigrationTP (other
// host, live): other host, offline, no shared link required.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"

	"hypertp/internal/guest"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/uisr"
)

// Format constants.
const (
	magic   = 0x54504b43 // "CKPT"
	version = 1
)

// Image is a captured VM checkpoint.
type Image struct {
	// State is the VM's UISR platform state (no memory map — frame
	// placement is meaningless off-host).
	State *uisr.VMState
	// Pages holds the touched guest pages; untouched pages are zero by
	// contract and omitted.
	Pages []PageRecord
	// InPlaceCompatible carries the scheduling property across.
	InPlaceCompatible bool
}

// PageRecord is one guest page's contents.
type PageRecord struct {
	GFN  hw.GFN
	Data []byte // always hw.PageSize4K long
}

// Save captures a paused VM into an image. The VM itself is left
// untouched (still paused, still resident); destroying it is the
// caller's decision, as with Nova's suspend.
func Save(h hv.Hypervisor, id hv.VMID) (*Image, error) {
	vm, ok := h.LookupVM(id)
	if !ok {
		return nil, fmt.Errorf("checkpoint: no VM %d", id)
	}
	if !vm.Paused() {
		return nil, fmt.Errorf("checkpoint: VM %q must be paused", vm.Config.Name)
	}
	st, err := h.SaveUISR(id)
	if err != nil {
		return nil, err
	}
	st.MemMap = uisr.MemMap{}
	img := &Image{State: st, InPlaceCompatible: vm.Config.InPlaceCompatible}

	// Capture touched pages through the address space, in GFN order: one
	// walk over its spans.
	err = vm.Space.ForEachTouched(func(gfn hw.GFN, off int, data []byte) error {
		// data is the frame's written window at off; the record holds the
		// whole frame, the zeros around the window included.
		page := make([]byte, hw.PageSize4K)
		copy(page[off:], data)
		img.Pages = append(img.Pages, PageRecord{GFN: gfn, Data: page})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return img, nil
}

// Restore instantiates the image on the destination hypervisor. The VM
// comes back paused with fresh memory filled from the recorded pages;
// the caller attaches a guest stack (if it kept one) and resumes.
func Restore(h hv.Hypervisor, img *Image) (*hv.VM, error) {
	if img == nil || img.State == nil {
		return nil, fmt.Errorf("checkpoint: empty image")
	}
	vm, err := h.RestoreUISR(img.State, hv.RestoreOptions{
		Mode:              hv.RestoreAllocate,
		InPlaceCompatible: img.InPlaceCompatible,
	})
	if err != nil {
		return nil, err
	}
	// The recorded pages go back as one bulk write.
	ws := make([]hw.FrameWrite, len(img.Pages))
	for k, pr := range img.Pages {
		ws[k] = hw.FrameWrite{Index: uint64(pr.GFN), Data: pr.Data}
	}
	if n, err := vm.Space.WritePages(ws); err != nil {
		return nil, fmt.Errorf("checkpoint: replay page %d: %w", img.Pages[n].GFN, err)
	}
	return vm, nil
}

// Suspend is the whole guest-state-saving operation: it pauses VM id
// if it runs, saves and serializes it, and destroys it on h. The
// returned image is all that is left of the VM.
func Suspend(h hv.Hypervisor, id hv.VMID) ([]byte, error) {
	if vm, ok := h.LookupVM(id); ok && !vm.Paused() {
		if err := h.Pause(id); err != nil {
			return nil, err
		}
	}
	img, err := Save(h, id)
	if err != nil {
		return nil, err
	}
	data, err := Serialize(img)
	if err != nil {
		return nil, err
	}
	if err := h.DestroyVM(id); err != nil {
		return nil, err
	}
	return data, nil
}

// Resume is the whole guest-state-restoring operation: it restores a
// Suspend image on h, attaches g when it is not nil (the guest stack
// captured before the suspend, which keeps end-to-end verification) and
// resumes the VM.
func Resume(h hv.Hypervisor, data []byte, g *guest.Guest) (*hv.VM, error) {
	img, err := Deserialize(data)
	if err != nil {
		return nil, err
	}
	vm, err := Restore(h, img)
	if err != nil {
		return nil, err
	}
	if g != nil {
		if err := h.AttachGuest(vm.ID, g); err != nil {
			return nil, err
		}
	}
	if err := h.Resume(vm.ID); err != nil {
		return nil, err
	}
	return vm, nil
}

// Serialize encodes the image into the durable on-disk format:
//
//	magic u32 | version u16 | flags u16 | uisrLen u32 | uisr bytes
//	| pageCount u32 | { gfn u64 | 4096 bytes }* | crc64 u64
//
// The trailing checksum covers everything before it.
func Serialize(img *Image) ([]byte, error) {
	blob, err := uisr.Encode(img.State)
	if err != nil {
		return nil, err
	}
	// The image size is exact, so the whole output is one allocation
	// written in place.
	size := 12 + len(blob) + 4 + len(img.Pages)*(8+hw.PageSize4K) + 8
	out := make([]byte, size)
	le := binary.LittleEndian

	le.PutUint32(out[0:], magic)
	le.PutUint16(out[4:], version)
	flags := uint16(0)
	if img.InPlaceCompatible {
		flags |= 1
	}
	le.PutUint16(out[6:], flags)
	le.PutUint32(out[8:], uint32(len(blob)))
	copy(out[12:], blob)

	pagesOff := 12 + len(blob)
	le.PutUint32(out[pagesOff:], uint32(len(img.Pages)))
	pagesOff += 4
	for i, pr := range img.Pages {
		if len(pr.Data) != hw.PageSize4K {
			return nil, fmt.Errorf("checkpoint: page %d has %d bytes", pr.GFN, len(pr.Data))
		}
		rec := out[pagesOff+i*(8+hw.PageSize4K):]
		le.PutUint64(rec[0:], uint64(pr.GFN))
		copy(rec[8:8+hw.PageSize4K], pr.Data)
	}
	le.PutUint64(out[size-8:], crc64.Checksum(out[:size-8], hw.CRCTable))
	return out, nil
}

// Deserialize parses and validates a serialized image. Any corruption —
// framing or checksum — is an error; a transplant system must never
// resume a guest from a damaged image.
func Deserialize(data []byte) (*Image, error) {
	if len(data) < 12+4+8 {
		return nil, fmt.Errorf("checkpoint: image too short (%d bytes)", len(data))
	}
	body, sum := data[:len(data)-8], uisr.NewReader(data[len(data)-8:])
	if crc64.Checksum(body, hw.CRCTable) != sum.U64() {
		return nil, fmt.Errorf("checkpoint: checksum mismatch — image corrupt")
	}
	r := uisr.NewReader(body)
	if m := r.U32(); m != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %#x", m)
	}
	if v := r.U16(); v != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", v)
	}
	flags := r.U16()
	blob := r.Bytes(int(r.U32()))
	n := r.Count(uint64(r.U32()), math.MaxUint32, 8+hw.PageSize4K)
	pages := r.Bytes(n * (8 + hw.PageSize4K))
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("checkpoint: framing: %w", err)
	}
	st, err := uisr.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	img := &Image{State: st, InPlaceCompatible: flags&1 != 0}
	if n > 0 {
		// One backing array for all page contents (instead of one
		// allocation per page), sliced per record.
		img.Pages = make([]PageRecord, n)
		backing := make([]byte, n*hw.PageSize4K)
		for i := range img.Pages {
			rec := uisr.NewReader(pages[i*(8+hw.PageSize4K) : (i+1)*(8+hw.PageSize4K)])
			page := backing[i*hw.PageSize4K : (i+1)*hw.PageSize4K : (i+1)*hw.PageSize4K]
			img.Pages[i] = PageRecord{GFN: hw.GFN(rec.U64()), Data: page}
			copy(page, rec.Bytes(hw.PageSize4K))
		}
	}
	return img, nil
}

// Bytes returns the image's serialized size without materializing it.
func (img *Image) Bytes() (int, error) {
	n, err := uisr.EncodedSize(img.State)
	if err != nil {
		return 0, err
	}
	return 12 + n + 4 + len(img.Pages)*(8+hw.PageSize4K) + 8, nil
}
