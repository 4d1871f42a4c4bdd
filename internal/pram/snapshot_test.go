package pram

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"hypertp/internal/hw"
)

// TestSnapshotMissesOnOccupiedFramesThenHits replays the warm-host miss:
// a staged kexec image lands on frames the cached structure occupied, so
// the replay cannot claim them and the build runs cold — on the same
// frames and with the same page bytes as a build with no snapshot at all
// — and the next build of the same fileset, once those frames are free,
// replays the structure that cold build captured.
func TestSnapshotMissesOnOccupiedFramesThenHits(t *testing.T) {
	snap := NewSnapshot()
	warm, cold := newMem(), newMem()
	files := []File{hugeFile(warm, "vm-a", 1, 1), hugeFile(warm, "vm-b", 2, 1)}
	hugeFile(cold, "vm-a", 1, 1)
	hugeFile(cold, "vm-b", 2, 1)
	// built keeps a structure's frames past its Release, which drops them.
	type built struct {
		s      *Structure
		frames []hw.FrameRange
		pages  []byte
	}
	build := func(mem *hw.PhysMem, opts BuildOptions) built {
		t.Helper()
		s, err := Build(mem, files, opts)
		if err != nil {
			t.Fatal(err)
		}
		pages, err := mem.ReadRanges(s.MetaFrames)
		if err != nil {
			t.Fatal(err)
		}
		return built{s, slices.Clone(s.MetaFrames), pages}
	}
	release := func(b built, mem *hw.PhysMem) {
		t.Helper()
		if err := b.s.Release(mem); err != nil {
			t.Fatal(err)
		}
	}
	stats := func(wantHits, wantMisses uint64) {
		t.Helper()
		if hits, misses := snap.Stats(); hits != wantHits || misses != wantMisses {
			t.Fatalf("snapshot hits/misses %d/%d, want %d/%d", hits, misses, wantHits, wantMisses)
		}
	}

	first := build(warm, BuildOptions{Snapshot: snap})
	release(first, warm)
	release(build(cold, BuildOptions{}), cold)
	stats(0, 1)

	// The image takes a cached metadata frame on both machines.
	image := first.frames[len(first.frames)-1]
	for _, mem := range []*hw.PhysMem{warm, cold} {
		if err := mem.ClaimRange(image.End()-1, 1, hw.OwnerKexecImage, -1); err != nil {
			t.Fatal(err)
		}
	}
	fallback, want := build(warm, BuildOptions{Snapshot: snap}), build(cold, BuildOptions{})
	stats(0, 2)
	if !reflect.DeepEqual(fallback.frames, want.frames) || fallback.s.Pointer != want.s.Pointer ||
		!bytes.Equal(fallback.pages, want.pages) {
		t.Fatalf("cold fallback at %v differs from a build without a snapshot at %v", fallback.frames, want.frames)
	}
	if reflect.DeepEqual(fallback.frames, first.frames) {
		t.Fatal("cold fallback reused the occupied frames")
	}
	release(fallback, warm)

	replay := build(warm, BuildOptions{Snapshot: snap})
	stats(1, 2)
	if !reflect.DeepEqual(replay.frames, fallback.frames) || replay.s.Pointer != fallback.s.Pointer ||
		!bytes.Equal(replay.pages, fallback.pages) {
		t.Fatalf("replay at %v differs from the cold build it captured at %v", replay.frames, fallback.frames)
	}
	if parsed, err := Parse(warm, replay.s.Pointer); err != nil || !reflect.DeepEqual(parsed.Files, files) {
		t.Fatalf("replayed structure parses to %v, %v", parsed, err)
	}
}
