package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/value"
	"repro/internal/vfs"
)

// FuzzCheckpointLoad feeds arbitrary bytes as a checkpoint directory's
// manifest and part files (plus a lower-timestamped intact checkpoint),
// mirroring the wire-codec fuzzers: corrupt or truncated inputs must
// surface as ErrCorrupt-driven fallback (Latest returns the older
// checkpoint), never a panic, a huge allocation from a lying count field,
// or a half-valid checkpoint. Corpora are seeded from the writer so the
// fuzzer starts on the happy path and mutates outward.
func FuzzCheckpointLoad(f *testing.F) {
	const dir = "/fz"
	seed := func(nEntries, parts int, startTS uint64) ([]byte, []byte, []byte) {
		m := vfs.NewMemFS()
		if err := m.MkdirAll(dir, 0o755); err != nil {
			f.Fatal(err)
		}
		writeParts(f, m, dir, startTS, parts, entries(nEntries))
		mf, _ := m.ReadFile(filepath.Join(dir, ManifestName(startTS)))
		p0, _ := m.ReadFile(filepath.Join(dir, PartName(startTS, 0)))
		var p1 []byte
		if parts > 1 {
			p1, _ = m.ReadFile(filepath.Join(dir, PartName(startTS, 1)))
		}
		return mf, p0, p1
	}
	add := func(mf, p0, p1 []byte) { f.Add(mf, p0, p1) }
	add(seed(0, 1, 7))
	add(seed(17, 2, 7))
	add(seed(100, 2, 7))
	mf, p0, p1 := seed(5, 2, 7)
	f.Add(mf[:len(mf)-2], p0, p1)                  // torn manifest
	f.Add(mf, p0[:len(p0)/2], p1)                  // torn part
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, p0, p1)  // garbage manifest
	f.Add(mf, []byte("MTCKPT2\n\x00\x00\x00"), p1) // short part body

	f.Fuzz(func(t *testing.T, mf, p0, p1 []byte) {
		m := vfs.NewMemFS()
		if err := m.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		write := func(name string, b []byte) {
			fh, err := m.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			fh.Write(b)
			fh.Close()
		}
		// The fuzzed checkpoint at ts=7, an intact one-part fallback at ts=3.
		write(ManifestName(7), mf)
		write(PartName(7, 0), p0)
		write(PartName(7, 1), p1)
		fallback := entries(3)
		writeParts(t, m, dir, 3, 1, fallback)

		ts, parts, err := Latest(m, dir)
		switch {
		case err == nil:
			if ts != 7 && ts != 3 {
				t.Fatalf("loaded checkpoint with unexpected ts %d", ts)
			}
			if ts == 3 && (len(parts) != 1 || len(parts[0]) != len(fallback)) {
				t.Fatalf("fallback returned %d parts, want 1 of %d entries", len(parts), len(fallback))
			}
			for _, es := range parts {
				for _, e := range es {
					_ = e.Value.Version()
					for c := 0; c < e.Value.NumCols(); c++ {
						_ = e.Value.Col(c)
					}
				}
			}
		case errors.Is(err, ErrNone):
			// The fallback checkpoint is always intact, so ErrNone is a bug.
			t.Fatalf("ErrNone despite an intact fallback checkpoint")
		default:
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}

// FuzzParseCkptFile fuzzes the body parser directly (no filesystem): never
// panic, never allocate absurdly from a lying count, errors are ErrCorrupt.
func FuzzParseCkptFile(f *testing.F) {
	var bodies [][]byte
	m := vfs.NewMemFS()
	m.MkdirAll("/s", 0o755)
	for _, n := range []int{0, 1, 64} {
		writeParts(f, m, "/s", uint64(n), 1, entries(n))
		b, _ := m.ReadFile(filepath.Join("/s", PartName(uint64(n), 0)))
		bodies = append(bodies, b)
	}
	for _, b := range bodies {
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ts, es, err := parseCkptFile(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error class: %v", err)
			}
			return
		}
		_ = ts
		for _, e := range es {
			if e.Value == nil {
				t.Fatal("nil value in parsed entry")
			}
			_ = value.Equal(e.Value, e.Value)
		}
	})
}
