package pram

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hypertp/internal/hw"
	"hypertp/internal/uisr"
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
		pages, err := mem.ReadRanges(s.MetaFrames, nil)
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

// replayed builds files on mem through snap until a build replays: a cold
// build captures its pages, the snapshot's Parse memoizes their parse,
// and the structure is released and built again from the snapshot.
func replayed(t *testing.T, mem *hw.PhysMem, snap *Snapshot, files []File) *Structure {
	t.Helper()
	s, err := Build(mem, files, BuildOptions{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Parse(mem, s.Pointer); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(mem); err != nil {
		t.Fatal(err)
	}
	hits, _ := snap.Stats()
	if s, err = Build(mem, files, BuildOptions{Snapshot: snap}); err != nil {
		t.Fatal(err)
	}
	if again, _ := snap.Stats(); again != hits+1 {
		t.Fatal("second build of the same fileset did not replay")
	}
	return s
}

// TestSnapshotParseMemoMatchesColdParse: a replayed structure parses from
// the memo, to exactly what a cold Parse of the same frames returns, and
// every hit hands out a fresh Structure, so releasing one leaves the memo
// intact for the next replay.
func TestSnapshotParseMemoMatchesColdParse(t *testing.T) {
	mem, snap := newMem(), NewSnapshot()
	files := []File{hugeFile(mem, "vm-a", 1, 1), hugeFile(mem, "vm-b", 2, 2)}
	s := replayed(t, mem, snap, files)
	for round := 1; round <= 2; round++ {
		memo, err := snap.Parse(mem, s.Pointer)
		if err != nil {
			t.Fatal(err)
		}
		if got := snap.ParseHits(); got != uint64(round) {
			t.Fatalf("round %d: %d parse-memo hits, want %d", round, got, round)
		}
		cold, err := Parse(mem, s.Pointer)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(memo, cold) {
			t.Fatalf("round %d: memo hit %+v differs from a cold Parse %+v", round, memo, cold)
		}
		if err := memo.Release(mem); err != nil {
			t.Fatal(err)
		}
		if s, err = Build(mem, files, BuildOptions{Snapshot: snap}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotParseMemoMissesOnCorruption: one byte written into a
// replayed metadata frame unshares its page, so the memo misses and the
// cold Parse runs — and rejects the structure by name. A frame freed and
// rewritten with the very same bytes breaks page identity too: the memo
// misses, and the cold Parse succeeds.
func TestSnapshotParseMemoMissesOnCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(mem *hw.PhysMem, s *Structure) error
		want    string
	}{
		{"root-magic", func(mem *hw.PhysMem, s *Structure) error {
			return mem.Write(s.Pointer, 0, []byte{0xff})
		}, "bad root magic"},
		{"node-count", func(mem *hw.PhysMem, s *Structure) error {
			// The first metadata frame is the first file's first node.
			return mem.Write(s.MetaFrames[0].Start, 17, []byte{0xff})
		}, "node entry count"},
		{"rewritten", func(mem *hw.PhysMem, s *Structure) error {
			image, err := mem.ReadRanges(s.MetaFrames, nil)
			if err != nil {
				return err
			}
			if err := mem.FreeRanges(s.MetaFrames); err != nil {
				return err
			}
			for _, r := range s.MetaFrames {
				if err := mem.ClaimRange(r.Start, r.Count, hw.OwnerPRAM, -1); err != nil {
					return err
				}
			}
			return mem.FillRanges(s.MetaFrames, len(image), func(b []byte) { copy(b, image) })
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem, snap := newMem(), NewSnapshot()
			files := []File{hugeFile(mem, "vm-a", 1, 1), hugeFile(mem, "vm-b", 2, 1)}
			s := replayed(t, mem, snap, files)
			if err := tc.corrupt(mem, s); err != nil {
				t.Fatal(err)
			}
			parsed, err := snap.Parse(mem, s.Pointer)
			if hits := snap.ParseHits(); hits != 0 {
				t.Fatalf("corrupted structure hit the parse memo (%d hits)", hits)
			}
			if tc.want == "" {
				if err != nil || !reflect.DeepEqual(parsed.Files, files) {
					t.Fatalf("rewritten structure parses to %v, %v", parsed, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("corrupted structure parsed with error %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// rekey is the test seam that forces a key collision: it files the entry
// under key from under key to, as if the fileset hashing to to had hashed
// to from.
func rekey(s *Snapshot, from, to uint64) {
	s.entries[to] = s.entries[from]
	delete(s.entries, from)
	s.order[slices.Index(s.order, from)] = to
}

// TestSnapshotKeyCollisionMisses: an entry found under another fileset's
// key is not installed. The build misses and runs cold, to the same
// frames and bytes as a build without a snapshot, and parses to its own
// fileset, not the entry's.
func TestSnapshotKeyCollisionMisses(t *testing.T) {
	snap := NewSnapshot()
	warm, cold := newMem(), newMem()
	a := []File{hugeFile(warm, "vm-a", 1, 1)}
	b := []File{hugeFile(warm, "vm-b", 2, 1)}
	hugeFile(cold, "vm-a", 1, 1)
	hugeFile(cold, "vm-b", 2, 1)
	build := func(mem *hw.PhysMem, files []File, opts BuildOptions) (*Structure, []byte) {
		t.Helper()
		s, err := Build(mem, files, opts)
		if err != nil {
			t.Fatal(err)
		}
		pages, err := mem.ReadRanges(s.MetaFrames, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s, pages
	}
	for _, mem := range []*hw.PhysMem{warm, cold} {
		opts := BuildOptions{}
		if mem == warm {
			opts.Snapshot = snap
		}
		s, _ := build(mem, a, opts)
		if err := s.Release(mem); err != nil {
			t.Fatal(err)
		}
	}
	rekey(snap, filesKey(a, false), filesKey(b, false))

	got, gotPages := build(warm, b, BuildOptions{Snapshot: snap})
	want, wantPages := build(cold, b, BuildOptions{})
	if hits, misses := snap.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("snapshot hits/misses %d/%d after a collision, want 0/2", hits, misses)
	}
	if got.Pointer != want.Pointer || !reflect.DeepEqual(got.MetaFrames, want.MetaFrames) || !bytes.Equal(gotPages, wantPages) {
		t.Fatal("the build behind a collision differs from a build without a snapshot")
	}
	parsed, err := snap.Parse(warm, got.Pointer)
	if err != nil || !reflect.DeepEqual(parsed.Files, b) {
		t.Fatalf("the build behind a collision parses to %v, %v; want %v", parsed, err, b)
	}
}

// TestSnapshotAdoptsEqualFileset: a fileset equal to an entry's but held
// in other arrays replays after one comparison of its extents, and then
// is the entry's own: its next replay reads none.
func TestSnapshotAdoptsEqualFileset(t *testing.T) {
	mem, snap := newMem(), NewSnapshot()
	files := []File{hugeFile(mem, "vm-a", 1, 1), hugeFile(mem, "vm-b", 2, 2)}
	s := replayed(t, mem, snap, files)
	// The parse the replay memoized compared its maps with the entry's.
	base := snap.ExtentReads()
	equal := make([]File, len(files))
	var extents uint64
	for i, f := range files {
		equal[i] = File{Name: f.Name, VMID: f.VMID, Extents: uisr.NewMemMap(slices.Clone(f.Extents.Extents()))}
		extents += uint64(f.Extents.Len())
	}
	for round, want := range []uint64{base + extents, base + extents} {
		if err := s.Release(mem); err != nil {
			t.Fatal(err)
		}
		var err error
		if s, err = Build(mem, equal, BuildOptions{Snapshot: snap}); err != nil {
			t.Fatal(err)
		}
		if hits, _ := snap.Stats(); hits != uint64(2+round) {
			t.Fatalf("round %d: an equal fileset did not replay", round)
		}
		if reads := snap.ExtentReads(); reads != want {
			t.Fatalf("round %d: %d extents read in all, want %d", round, reads, want)
		}
	}
}
