// Package vfs is the filesystem seam under the persistence layer (wal and
// checkpoint). Production code runs on OS, a thin veneer over package os;
// tests run on MemFS, an in-memory filesystem that models crash-consistency
// the way a conservative POSIX filesystem behaves:
//
//   - File data written but not fsynced is lost at a crash.
//   - Directory operations (create, rename, remove) are volatile until the
//     directory itself is fsynced (SyncDir); a crash may persist any subset
//     of the un-synced operations, in any combination the test chooses.
//
// Fault wraps any FS and turns every mutating call — write, fsync, rename,
// remove, create, dir-sync — into a numbered crash boundary: arming the
// injector at boundary N makes operation N (and everything after it) fail
// with ErrCrashed, after which the MemFS can produce post-crash disk images
// to recover from. This is the engine behind the crash-point torture tests:
// enumerate the boundaries, kill the store at each one, recover, and check
// the result against a model of acknowledged writes.
package vfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// FS is the set of filesystem operations the persistence layer uses.
type FS interface {
	// OpenFile opens name with os.O_* flags. Files are written
	// sequentially (append-style); implementations need not support
	// seeking.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a new unique file in dir from pattern, as
	// os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically renames oldpath to newpath (same directory).
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// MkdirAll creates a directory and its parents.
	MkdirAll(path string, perm fs.FileMode) error
	// SyncDir forces a directory's entries (renames, creates, removes) to
	// storage. Without it a crash may forget — or arbitrarily reorder —
	// preceding directory operations.
	SyncDir(name string) error
}

// File is an open file handle. Writes always append.
type File interface {
	io.Writer
	// Sync forces written data to storage.
	Sync() error
	Close() error
	Name() string
	// Size returns the file's current length.
	Size() (int64, error)
}

// WriteFileAtomic commits b as dir/name the crash-safe way: it writes b to a
// fresh temp file in dir (named from pattern, as CreateTemp), syncs and
// closes it, then renames it into place, so name holds either its old
// contents or all of b. On any failure, the rename's included, the temp file
// is removed. Making the rename durable with SyncDir is the caller's step.
func WriteFileAtomic(fsys FS, dir, pattern, name string, b []byte) (err error) {
	f, err := fsys.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			fsys.Remove(f.Name())
		}
	}()
	if _, err = f.Write(b); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return fsys.Rename(f.Name(), filepath.Join(dir, name))
}

// OS is the production FS, delegating to package os.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error             { return os.Remove(name) }

func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (OS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }

func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// SyncDir fsyncs the directory so preceding renames, creates, and removes
// within it are durable. Filesystems that cannot fsync a directory report
// the failure; Linux filesystems support it.
func (OS) SyncDir(name string) error {
	d, err := os.Open(filepath.Clean(name))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

type osFile struct{ f *os.File }

func (o osFile) Write(p []byte) (int, error) { return o.f.Write(p) }
func (o osFile) Sync() error                 { return o.f.Sync() }
func (o osFile) Close() error                { return o.f.Close() }
func (o osFile) Name() string                { return o.f.Name() }

func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// NewOSFile wraps an *os.File as a vfs.File (tests that need to substitute
// a raw descriptor, e.g. a pipe whose Sync fails).
func NewOSFile(f *os.File) File { return osFile{f} }
