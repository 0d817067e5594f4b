// Package checkpoint implements Masstree's checkpoint facility (§5):
// periodic dumps of all keys and values that speed recovery and allow log
// space to be reclaimed.
//
// Checkpoints are fuzzy: they run in parallel with request processing by
// scanning the tree's immutable value objects, and they record the timestamp
// at which they began. Recovery loads the latest valid checkpoint and then
// replays logs; because every value carries a version (== log timestamp) and
// replay applies each key's updates in increasing version order with a
// version guard, overlap between checkpoint contents and retained log
// records is harmless.
//
// A checkpoint is written as T part files over disjoint key ranges
// (ckpt-<ts>-part<K>.ckpt, each with its own CRC footer) so T threads can
// write — and recovery can load — the parts concurrently, exactly as the
// paper checkpoints with multiple threads over subranges of the key space.
// A small manifest (ckpt-<ts>.mf) naming the parts is written last and
// renamed into place, and the directory is fsynced before the checkpoint is
// considered durable: the manifest rename is the commit point, so a crash
// mid-checkpoint leaves only ignorable part/temp orphans, and no log space
// is reclaimed before the checkpoint the reclamation depends on has truly
// reached the disk. The single-file format of earlier versions
// (ckpt-<ts>.ckpt) is still read.
//
// All filesystem access goes through an injectable vfs.FS, so crash-point
// torture tests can kill the writer at every write/fsync/rename boundary
// and prove recovery safe.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/value"
	"repro/internal/vfs"
)

var (
	// fileMagic is the current body-file format: each entry carries the
	// value's expiry timestamp (cache-mode TTLs survive checkpoints).
	// fileMagicV1 bodies — written before TTLs existed — are still read;
	// their entries load with expiry 0.
	fileMagic   = []byte("MTCKPT2\n")
	fileMagicV1 = []byte("MTCKPT1\n")
	mfMagic     = []byte("MTCKMF1\n")
	fileEnd     = []byte("MTCKEND\n")

	// ErrNone reports that no valid checkpoint exists.
	ErrNone = errors.New("checkpoint: none found")
	// ErrCorrupt reports an invalid or truncated checkpoint file.
	ErrCorrupt = errors.New("checkpoint: corrupt")
)

var (
	nameRE = regexp.MustCompile(`^ckpt-(\d{20})\.ckpt$`)
	partRE = regexp.MustCompile(`^ckpt-(\d{20})-part(\d{3})\.ckpt$`)
	mfRE   = regexp.MustCompile(`^ckpt-(\d{20})\.mf$`)
)

// FileName names a legacy single-file checkpoint that began at timestamp ts.
func FileName(ts uint64) string { return fmt.Sprintf("ckpt-%020d.ckpt", ts) }

// PartName names part k of the checkpoint that began at timestamp ts.
func PartName(ts uint64, k int) string { return fmt.Sprintf("ckpt-%020d-part%03d.ckpt", ts, k) }

// ManifestName names the manifest of the checkpoint that began at ts.
func ManifestName(ts uint64) string { return fmt.Sprintf("ckpt-%020d.mf", ts) }

// MaxParts bounds a checkpoint's part count (the part-name field is three
// digits). WriteParts rejects larger counts; callers clamp before
// partitioning.
const MaxParts = 1000

// Entry is one key-value pair in a checkpoint. Key and the value's column
// data alias the loaded file buffer; copy them if retained beyond the
// apply callback (the tree copies what it keeps).
type Entry struct {
	Key   []byte
	Value *value.Value
}

// writePartFile streams one checkpoint body (legacy file or part) into a
// temp file in dir: magic, startTS, entries, then a count/CRC/end footer.
// The synced, closed temp file's name is returned for the caller to rename
// into place. feed supplies the entries through emit.
func writePartFile(fsys vfs.FS, dir string, startTS uint64, feed func(emit func(Entry) error) error) (tmp string, n int, err error) {
	f, err := fsys.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return "", 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
			fsys.Remove(f.Name())
		}
	}()
	crc := crc32.NewIEEE()
	w := bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<20)
	if _, err = w.Write(fileMagic); err != nil {
		return "", 0, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], startTS)
	if _, err = w.Write(hdr[:]); err != nil {
		return "", 0, err
	}
	count := 0
	if err = feed(func(e Entry) error {
		count++
		return writeEntry(w, e)
	}); err != nil {
		return "", 0, err
	}
	// Footer: count, crc of everything before the footer, end magic.
	var foot [12]byte
	binary.LittleEndian.PutUint64(foot[:8], uint64(count))
	if _, err = w.Write(foot[:8]); err != nil {
		return "", 0, err
	}
	if err = w.Flush(); err != nil {
		return "", 0, err
	}
	sum := crc.Sum32()
	binary.LittleEndian.PutUint32(foot[8:], sum)
	if _, err = f.Write(foot[8:]); err != nil {
		return "", 0, err
	}
	if _, err = f.Write(fileEnd); err != nil {
		return "", 0, err
	}
	if err = f.Sync(); err != nil {
		return "", 0, err
	}
	if err = f.Close(); err != nil {
		return "", 0, err
	}
	return f.Name(), count, nil
}

// WriteFS streams a legacy single-file checkpoint that began at timestamp
// startTS into dir, reading entries from next until it returns false. The
// file is written to a temporary name, synced, atomically renamed, and the
// directory is synced, so a crash mid-checkpoint leaves no partially
// visible checkpoint and a completed one cannot be forgotten by the
// directory.
func WriteFS(fsys vfs.FS, dir string, startTS uint64, next func() (Entry, bool)) (path string, n int, err error) {
	tmp, n, err := writePartFile(fsys, dir, startTS, func(emit func(Entry) error) error {
		for {
			e, ok := next()
			if !ok {
				return nil
			}
			if err := emit(e); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return "", 0, err
	}
	final := filepath.Join(dir, FileName(startTS))
	if err = fsys.Rename(tmp, final); err != nil {
		return "", 0, err
	}
	if err = fsys.SyncDir(dir); err != nil {
		return "", 0, err
	}
	return final, n, nil
}

// Write is WriteFS on the real filesystem.
func Write(dir string, startTS uint64, next func() (Entry, bool)) (path string, n int, err error) {
	return WriteFS(vfs.OS{}, dir, startTS, next)
}

// WriteParts writes a multi-part checkpoint: scan(k, emit) must stream part
// k's entries (the caller partitions the key space into disjoint ranges).
// Parts are written concurrently, each to its own temp file, synced, and
// renamed; the manifest is renamed into place last and the directory is
// fsynced — only then is the checkpoint committed. Returns the total entry
// count.
func WriteParts(fsys vfs.FS, dir string, startTS uint64, parts int, scan func(part int, emit func(Entry) error) error) (n int, err error) {
	if parts < 1 {
		parts = 1
	}
	if parts > MaxParts {
		// Refuse rather than silently shrink: the caller partitioned the
		// key space for this count, and writing fewer parts would commit a
		// checkpoint missing every range past the last written part.
		return 0, fmt.Errorf("checkpoint: %d parts exceeds the maximum %d", parts, MaxParts)
	}
	tmps := make([]string, parts)
	counts := make([]uint64, parts)
	errs := make([]error, parts)
	run := func(k int) {
		tmp, c, err := writePartFile(fsys, dir, startTS, func(emit func(Entry) error) error {
			return scan(k, emit)
		})
		tmps[k], counts[k], errs[k] = tmp, uint64(c), err
	}
	if parts == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for k := 0; k < parts; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				run(k)
			}(k)
		}
		wg.Wait()
	}
	for _, e := range errs {
		if e != nil {
			for _, tmp := range tmps {
				if tmp != "" {
					fsys.Remove(tmp)
				}
			}
			return 0, e
		}
	}
	// Until the manifest commits, renamed parts are invisible orphans; on
	// any failure past this point remove whatever was published so a
	// failing checkpoint (ENOSPC, say) does not leak a full store dump
	// that only the next *successful* checkpoint's Drop would reclaim —
	// monotonically worsening the very condition that made it fail.
	published := 0
	unpublish := func() {
		for k := 0; k < published; k++ {
			fsys.Remove(filepath.Join(dir, PartName(startTS, k)))
		}
	}
	total := 0
	for k := 0; k < parts; k++ {
		if err := fsys.Rename(tmps[k], filepath.Join(dir, PartName(startTS, k))); err != nil {
			unpublish()
			for _, tmp := range tmps[k:] {
				fsys.Remove(tmp)
			}
			return 0, err
		}
		published++
		total += int(counts[k])
	}
	if err := writeManifest(fsys, dir, startTS, counts); err != nil {
		unpublish()
		return 0, err
	}
	// Commit point: every part rename and the manifest rename become
	// durable together. Without this sync a crash could remember a later
	// log reclamation while forgetting the checkpoint it depends on.
	if err := fsys.SyncDir(dir); err != nil {
		// Uncommitted: the caller will treat the checkpoint as failed and
		// reclaim nothing, so take the (visible but unsynced) manifest and
		// parts back out rather than leak a full store dump.
		fsys.Remove(filepath.Join(dir, ManifestName(startTS)))
		unpublish()
		return 0, err
	}
	return total, nil
}

// writeManifest writes and atomically publishes ckpt-<ts>.mf:
//
//	mfMagic | startTS u64 | parts u32 | count u64 per part | crc u32 | end
func writeManifest(fsys vfs.FS, dir string, startTS uint64, counts []uint64) error {
	b := append([]byte(nil), mfMagic...)
	b = binary.LittleEndian.AppendUint64(b, startTS)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(counts)))
	for _, c := range counts {
		b = binary.LittleEndian.AppendUint64(b, c)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	b = append(b, fileEnd...)
	f, err := fsys.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		fsys.Remove(f.Name())
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(f.Name())
		return err
	}
	return fsys.Rename(f.Name(), filepath.Join(dir, ManifestName(startTS)))
}

// parseManifest validates a manifest's framing and checksum.
func parseManifest(b []byte) (startTS uint64, counts []uint64, err error) {
	if len(b) < len(mfMagic)+8+4+4+len(fileEnd) {
		return 0, nil, fmt.Errorf("%w: short manifest", ErrCorrupt)
	}
	if string(b[:len(mfMagic)]) != string(mfMagic) {
		return 0, nil, fmt.Errorf("%w: bad manifest magic", ErrCorrupt)
	}
	if string(b[len(b)-len(fileEnd):]) != string(fileEnd) {
		return 0, nil, fmt.Errorf("%w: missing manifest end marker", ErrCorrupt)
	}
	crcOff := len(b) - len(fileEnd) - 4
	if crc32.ChecksumIEEE(b[:crcOff]) != binary.LittleEndian.Uint32(b[crcOff:]) {
		return 0, nil, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	startTS = binary.LittleEndian.Uint64(b[len(mfMagic):])
	parts := int(binary.LittleEndian.Uint32(b[len(mfMagic)+8:]))
	if parts < 1 || parts > MaxParts || len(b) != len(mfMagic)+8+4+8*parts+4+len(fileEnd) {
		return 0, nil, fmt.Errorf("%w: manifest part count %d does not match length", ErrCorrupt, parts)
	}
	counts = make([]uint64, parts)
	for i := range counts {
		counts[i] = binary.LittleEndian.Uint64(b[len(mfMagic)+12+8*i:])
	}
	return startTS, counts, nil
}

func writeEntry(w *bufio.Writer, e Entry) error {
	var buf [10]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(e.Key)))
	if _, err := w.Write(buf[:4]); err != nil {
		return err
	}
	if _, err := w.Write(e.Key); err != nil {
		return err
	}
	var vh [18]byte
	binary.LittleEndian.PutUint64(vh[:8], e.Value.Version())
	binary.LittleEndian.PutUint64(vh[8:16], e.Value.ExpiresAt())
	binary.LittleEndian.PutUint16(vh[16:], value.Count16(e.Value.NumCols(), "checkpoint entry"))
	if _, err := w.Write(vh[:]); err != nil {
		return err
	}
	for i := 0; i < e.Value.NumCols(); i++ {
		col := e.Value.Col(i)
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(col)))
		if _, err := w.Write(buf[:4]); err != nil {
			return err
		}
		if _, err := w.Write(col); err != nil {
			return err
		}
	}
	return nil
}

// Info describes one on-disk checkpoint: a manifest plus Parts part files,
// or (Parts == 0) a legacy single file.
type Info struct {
	Path    string // manifest path, or the legacy checkpoint file
	StartTS uint64
	Parts   int
}

// ListFS returns the checkpoints in dir, oldest first. Part files without
// their manifest (a crashed multi-part write) are not listed.
func ListFS(fsys vfs.FS, dir string) ([]Info, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Info
	for _, e := range ents {
		if m := nameRE.FindStringSubmatch(e.Name()); m != nil {
			ts, _ := strconv.ParseUint(m[1], 10, 64)
			out = append(out, Info{Path: filepath.Join(dir, e.Name()), StartTS: ts})
			continue
		}
		if m := mfRE.FindStringSubmatch(e.Name()); m != nil {
			ts, _ := strconv.ParseUint(m[1], 10, 64)
			out = append(out, Info{Path: filepath.Join(dir, e.Name()), StartTS: ts, Parts: -1})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartTS != out[j].StartTS {
			return out[i].StartTS < out[j].StartTS
		}
		// At equal timestamps the manifest sorts last, so LoadLatestFS
		// (which walks the list backwards) prefers it over a legacy file.
		return out[i].Parts > out[j].Parts
	})
	return out, nil
}

// List is ListFS on the real filesystem.
func List(dir string) ([]Info, error) { return ListFS(vfs.OS{}, dir) }

// Read loads and validates one checkpoint completely before returning:
// every part's checksum and framing must check out, so the result is
// all-or-nothing (a torn or corrupt checkpoint returns ErrCorrupt and can
// be skipped in favor of an older one). Parts are read and parsed
// concurrently. The returned entries alias the loaded file buffers.
func Read(fsys vfs.FS, in Info) (startTS uint64, parts [][]Entry, err error) {
	if in.Parts == 0 { // legacy single file
		b, err := readCkptFile(fsys, in.Path)
		if err != nil {
			return 0, nil, err
		}
		ts, es, err := parseCkptFile(b)
		if err != nil {
			return 0, nil, err
		}
		return ts, [][]Entry{es}, nil
	}
	mb, err := readCkptFile(fsys, in.Path)
	if err != nil {
		return 0, nil, err
	}
	ts, counts, err := parseManifest(mb)
	if err != nil {
		return 0, nil, err
	}
	dir := filepath.Dir(in.Path)
	parts = make([][]Entry, len(counts))
	errs := make([]error, len(counts))
	var wg sync.WaitGroup
	for k := range counts {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			b, err := readCkptFile(fsys, filepath.Join(dir, PartName(ts, k)))
			if err != nil {
				errs[k] = err
				return
			}
			pts, es, err := parseCkptFile(b)
			if err != nil {
				errs[k] = err
				return
			}
			if pts != ts || uint64(len(es)) != counts[k] {
				errs[k] = fmt.Errorf("%w: part %d does not match manifest", ErrCorrupt, k)
				return
			}
			parts[k] = es
		}(k)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, nil, e
		}
	}
	return ts, parts, nil
}

// readCkptFile maps a missing file onto ErrCorrupt: a manifest whose part
// vanished (or a listed file racing a Drop) is a torn checkpoint to fall
// back from, not a fatal recovery error.
func readCkptFile(fsys vfs.FS, path string) ([]byte, error) {
	b, err := fsys.ReadFile(path)
	if errors.Is(err, iofs.ErrNotExist) {
		return nil, fmt.Errorf("%w: missing %s", ErrCorrupt, filepath.Base(path))
	}
	return b, err
}

// LoadLatestFS loads the newest valid checkpoint in dir, streaming entries
// to apply. It returns the checkpoint's start timestamp, or ErrNone if no
// valid checkpoint exists. Invalid (torn) checkpoints are skipped in favor
// of older valid ones. Each checkpoint is fully validated before the first
// apply call, so apply never sees a half-valid checkpoint.
func LoadLatestFS(fsys vfs.FS, dir string, apply func(Entry)) (startTS uint64, err error) {
	infos, err := ListFS(fsys, dir)
	if err != nil {
		return 0, err
	}
	for i := len(infos) - 1; i >= 0; i-- {
		ts, parts, loadErr := Read(fsys, infos[i])
		if loadErr != nil {
			if errors.Is(loadErr, ErrCorrupt) {
				continue
			}
			return 0, loadErr
		}
		for _, es := range parts {
			for _, e := range es {
				apply(e)
			}
		}
		return ts, nil
	}
	return 0, ErrNone
}

// LoadLatest is LoadLatestFS on the real filesystem.
func LoadLatest(dir string, apply func(Entry)) (startTS uint64, err error) {
	return LoadLatestFS(vfs.OS{}, dir, apply)
}

// LoadFS reads one checkpoint body file (legacy or a single part),
// validating the whole file — checksum and every entry — before applying
// anything (a checkpoint is all-or-nothing, never half-applied).
func LoadFS(fsys vfs.FS, path string, apply func(Entry)) (startTS uint64, err error) {
	b, err := fsys.ReadFile(path)
	if err != nil {
		return 0, err
	}
	ts, es, err := parseCkptFile(b)
	if err != nil {
		return 0, err
	}
	for _, e := range es {
		apply(e)
	}
	return ts, nil
}

// Load is LoadFS on the real filesystem.
func Load(path string, apply func(Entry)) (startTS uint64, err error) {
	return LoadFS(vfs.OS{}, path, apply)
}

// parseCkptFile validates framing, checksum, and every entry of one body
// file, returning the decoded entries. Entries alias b. Both the current
// (expiry-carrying) and the v1 entry layout are accepted, keyed by magic.
func parseCkptFile(b []byte) (startTS uint64, es []Entry, err error) {
	if len(b) < len(fileMagic)+8+8+4+len(fileEnd) {
		return 0, nil, fmt.Errorf("%w: short file", ErrCorrupt)
	}
	v1 := string(b[:len(fileMagicV1)]) == string(fileMagicV1)
	if !v1 && string(b[:len(fileMagic)]) != string(fileMagic) {
		return 0, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if string(b[len(b)-len(fileEnd):]) != string(fileEnd) {
		return 0, nil, fmt.Errorf("%w: missing end marker", ErrCorrupt)
	}
	crcOff := len(b) - len(fileEnd) - 4
	wantCRC := binary.LittleEndian.Uint32(b[crcOff:])
	if crc32.ChecksumIEEE(b[:crcOff]) != wantCRC {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	body := b[len(fileMagic):crcOff]
	if len(body) < 16 {
		return 0, nil, fmt.Errorf("%w: short body", ErrCorrupt)
	}
	startTS = binary.LittleEndian.Uint64(body[:8])
	count := binary.LittleEndian.Uint64(body[len(body)-8:])
	body = body[8 : len(body)-8]
	// A tiny body cannot honestly hold a huge claimed count (each entry is
	// at least 14 bytes); bound the allocation by what could fit.
	if count > uint64(len(body)/14)+1 {
		return 0, nil, fmt.Errorf("%w: claimed count %d exceeds body", ErrCorrupt, count)
	}
	es = make([]Entry, 0, count)
	var puts []value.ColPut // reused scratch; BuildTTLAt copies
	for i := uint64(0); i < count; i++ {
		var e Entry
		var n int
		e, n, puts, err = parseEntry(body, puts, v1)
		if err != nil {
			return 0, nil, err
		}
		es = append(es, e)
		body = body[n:]
	}
	if len(body) != 0 {
		return 0, nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return startTS, es, nil
}

// parseEntry decodes one entry. The key aliases b; the value is built as a
// single packed allocation (the same representation the write path builds),
// so loading performs exactly one allocation per entry. v1 entries carry no
// expiry field and load with expiry 0.
func parseEntry(b []byte, scratch []value.ColPut, v1 bool) (Entry, int, []value.ColPut, error) {
	vhLen := 18 // version u64 | expiry u64 | ncols u16
	if v1 {
		vhLen = 10 // version u64 | ncols u16
	}
	if len(b) < 4 {
		return Entry{}, 0, scratch, fmt.Errorf("%w: short entry", ErrCorrupt)
	}
	klen := int(binary.LittleEndian.Uint32(b))
	p := 4
	if klen < 0 || len(b) < p+klen+vhLen {
		return Entry{}, 0, scratch, fmt.Errorf("%w: short entry", ErrCorrupt)
	}
	key := b[p : p+klen]
	p += klen
	version := binary.LittleEndian.Uint64(b[p:])
	p += 8
	expiry := uint64(0)
	if !v1 {
		expiry = binary.LittleEndian.Uint64(b[p:])
		p += 8
	}
	ncols := int(binary.LittleEndian.Uint16(b[p:]))
	p += 2
	scratch = scratch[:0]
	for i := 0; i < ncols; i++ {
		if len(b) < p+4 {
			return Entry{}, 0, scratch, fmt.Errorf("%w: short column", ErrCorrupt)
		}
		clen := int(binary.LittleEndian.Uint32(b[p:]))
		p += 4
		if clen < 0 || len(b) < p+clen {
			return Entry{}, 0, scratch, fmt.Errorf("%w: short column data", ErrCorrupt)
		}
		scratch = append(scratch, value.ColPut{Col: i, Data: b[p : p+clen]})
		p += clen
	}
	return Entry{Key: key, Value: value.BuildTTLAt(nil, scratch, version, 0, expiry)}, p, scratch, nil
}

// DropFS removes all checkpoints older than the one at keepTS, plus any
// orphaned part and temp files from crashed checkpoint attempts. Manifests
// go before their parts so a crash mid-drop leaves orphans, never a
// manifest whose parts are missing.
func DropFS(fsys vfs.FS, dir string, keepTS uint64) error {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	var parts, tmps []string
	for _, e := range ents {
		name := e.Name()
		if m := mfRE.FindStringSubmatch(name); m != nil {
			if ts, _ := strconv.ParseUint(m[1], 10, 64); ts < keepTS {
				if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
					return err
				}
			}
			continue
		}
		if m := nameRE.FindStringSubmatch(name); m != nil {
			if ts, _ := strconv.ParseUint(m[1], 10, 64); ts < keepTS {
				if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
					return err
				}
			}
			continue
		}
		if m := partRE.FindStringSubmatch(name); m != nil {
			if ts, _ := strconv.ParseUint(m[1], 10, 64); ts < keepTS {
				parts = append(parts, filepath.Join(dir, name))
			}
			continue
		}
		if strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".tmp") {
			tmps = append(tmps, filepath.Join(dir, name))
		}
	}
	for _, p := range append(parts, tmps...) {
		if err := fsys.Remove(p); err != nil {
			return err
		}
	}
	return nil
}

// Drop is DropFS on the real filesystem.
func Drop(dir string, keepTS uint64) error { return DropFS(vfs.OS{}, dir, keepTS) }
