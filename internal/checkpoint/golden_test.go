package checkpoint

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/value"
	"repro/internal/vfs"
)

// TestCheckpointBytesGolden pins the on-disk bytes of a one-part checkpoint:
// the MTCKPT2 part (one entry without and one with an expiry) and the
// MTCKMF1 manifest naming it. LoadLatest reads both entries back.
func TestCheckpointBytesGolden(t *testing.T) {
	dir := t.TempDir()
	es := []Entry{
		{Key: []byte("a"), Value: value.NewAt(5, []byte("x"), nil)},
		{Key: []byte("b"), Value: value.BuildTTLAt(nil, []value.ColPut{{Col: 1, Data: []byte("yz")}}, 6, 0, 0x77)},
	}
	if _, err := WriteParts(vfs.OS{}, dir, 0x42, 1, func(_ int, emit func(Entry) error) error {
		for _, e := range es {
			if err := emit(e); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct{ name, want string }{
		{PartName(0x42, 0), "4d54434b5054320a" + "4200000000000000" +
			"0100000061" + "0500000000000000" + "0000000000000000" + "0200" + "0100000078" + "00000000" +
			"0100000062" + "0600000000000000" + "7700000000000000" + "0200" + "00000000" + "02000000797a" +
			"0200000000000000" + "0aedf4bd" + "4d54434b454e440a"},
		{ManifestName(0x42), "4d54434b4d46310a" + "4200000000000000" + "01000000" + "0200000000000000" +
			"13f120cb" + "4d54434b454e440a"},
	} {
		b, err := os.ReadFile(filepath.Join(dir, c.name))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}

	var got []Entry
	ts, err := LoadLatest(dir, func(e Entry) { got = append(got, e) })
	if err != nil || ts != 0x42 || len(got) != len(es) {
		t.Fatalf("loaded ts %#x, %d entries, err %v; want 0x42, %d", ts, len(got), err, len(es))
	}
	for i, e := range got {
		if !bytes.Equal(e.Key, es[i].Key) || !value.Equal(e.Value, es[i].Value) ||
			e.Value.Version() != es[i].Value.Version() || e.Value.ExpiresAt() != es[i].Value.ExpiresAt() {
			t.Fatalf("entry %d = %q %v, want %q %v", i, e.Key, e.Value, es[i].Key, es[i].Value)
		}
	}
}
