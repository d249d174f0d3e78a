package durable

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the slice of *os.File the durable layer needs: sequential and
// positioned I/O, truncation for torn-tail healing, and an explicit
// fsync. Every write path in the store and journal goes through this
// interface, so a fault-injecting implementation can exercise each
// disk-failure branch in-process.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync flushes the file's contents to stable storage (fsync).
	Sync() error
	// Truncate changes the file's size.
	Truncate(size int64) error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the virtual filesystem the durable store and journal are built
// on. The real implementation (OS) delegates to the os package; faultfs
// wraps any FS and injects deterministic failures. The interface is
// deliberately small: exactly the operations the durability layer
// performs, so the fault matrix stays enumerable.
type FS interface {
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// OpenFile opens path with os.OpenFile semantics.
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	// ReadFile returns the full contents of path.
	ReadFile(path string) ([]byte, error)
	// ReadDir lists the file names in a directory, sorted.
	ReadDir(path string) ([]string, error)
	// Rename atomically moves oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(path string) error
	// SyncDir fsyncs a directory so a preceding rename or create in it
	// survives a crash. Best-effort on filesystems without dir sync.
	SyncDir(path string) error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the real, os-package-backed filesystem.
func OS() FS { return osFS{} }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) ReadDir(path string) ([]string, error) {
	ents, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) SyncDir(path string) error {
	d, err := os.Open(filepath.Clean(path))
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
