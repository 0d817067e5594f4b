package wal

import (
	"encoding/binary"
	"hash/crc32"
	"path/filepath"

	"repro/internal/vfs"
)

// The logset file records which log files recovery should expect: the
// worker count and the current generation. Without it, a directory listing
// cannot distinguish "worker w never logged" (its file exists, possibly
// empty) from "worker w's log vanished" (no file at all) — and a vanished
// log contributes no constraint to the recovery cutoff, so its absence
// would otherwise go entirely unnoticed. RecoverDirAboveFS reports files
// the logset expects but the directory lacks as RecoveryResult.MissingLogs.
//
// The file is committed like a checkpoint manifest — vfs.WriteFileAtomic,
// then a directory sync — so a crash leaves either the old expectation or
// the new one, never a torn file. It is written only after the log files it
// names have had their directory entries synced (OpenSetFS and Set.Rotate
// batch-sync creations first), so the expectation never runs ahead of
// reality and a missing-log report is never a false positive. An absent or
// unparseable logset (directories written before the file existed, or a
// torn rename target on a non-atomic filesystem) disables the check rather
// than failing recovery.

// LogSetFileName is the name of the expected-log-set file within a log
// directory.
const LogSetFileName = "logset"

var logSetMagic = []byte("MTLSET1\n")

// writeLogSet durably records that recovery should expect one log file per
// worker in [0, workers) at generation gen.
func writeLogSet(fsys vfs.FS, dir string, workers int, gen uint64) error {
	buf := make([]byte, 0, len(logSetMagic)+16)
	buf = append(buf, logSetMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(workers))
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(logSetMagic):]))
	if err := vfs.WriteFileAtomic(fsys, dir, "logset-*.tmp", LogSetFileName, buf); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// readLogSet reads the expected log set. ok is false when the file is
// absent or does not parse, in which case missing-log detection is
// disabled (the directory predates the logset, or the file itself was
// lost — which the caller cannot tell apart from never-written).
func readLogSet(fsys vfs.FS, dir string) (workers int, gen uint64, ok bool) {
	b, err := fsys.ReadFile(filepath.Join(dir, LogSetFileName))
	if err != nil || len(b) != len(logSetMagic)+16 {
		return 0, 0, false
	}
	if string(b[:len(logSetMagic)]) != string(logSetMagic) {
		return 0, 0, false
	}
	payload := b[len(logSetMagic) : len(logSetMagic)+12]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[len(logSetMagic)+12:]) {
		return 0, 0, false
	}
	return int(binary.LittleEndian.Uint32(payload)), binary.LittleEndian.Uint64(payload[4:]), true
}
