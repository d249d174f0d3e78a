package durable

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
)

// ErrInjected is the sentinel wrapped by every rate- or count-based
// fault the FaultFS injects (ENOSPC faults wrap syscall.ENOSPC instead,
// so callers can distinguish disk-full from generic I/O failure).
var ErrInjected = errors.New("faultfs: injected I/O error")

// FaultConfig describes a deterministic fault plan for a FaultFS. All
// probabilities are evaluated against a seeded PRNG, so the same seed
// and operation sequence always fails the same operations.
type FaultConfig struct {
	// Seed initializes the PRNG driving the error rates.
	Seed uint64
	// WriteErrRate is the per-Write probability of an injected failure.
	WriteErrRate float64
	// SyncErrRate is the per-Sync (fsync) probability of an injected
	// failure.
	SyncErrRate float64
	// OpErrRate is the per-metadata-op (create, rename, remove)
	// probability of an injected failure.
	OpErrRate float64
	// ENOSPCAfterBytes, when positive, makes every Write fail with
	// ENOSPC once the cumulative bytes written through this FS reach the
	// limit. The write that crosses the limit is torn: the prefix that
	// "fit" lands on disk before the error, like a real full disk.
	ENOSPCAfterBytes int64
}

// FaultStats counts the faults a FaultFS has injected.
type FaultStats struct {
	WritesFailed int64
	SyncsFailed  int64
	OpsFailed    int64
	ENOSPCHits   int64
}

// FaultFS wraps an FS and injects deterministic, seed-driven failures
// into its write paths. Reads are never faulted (read-side corruption is
// exercised separately, by damaging bytes on disk). Heal stops all
// injection; FailNextWrites / FailNextSyncs force exact one-shot
// failures for tests that need a specific operation to fail.
type FaultFS struct {
	inner FS

	mu         sync.Mutex
	cfg        FaultConfig
	rng        uint64
	bytes      int64 // cumulative bytes written (for ENOSPCAfterBytes)
	healed     bool
	failWrites int // countdown of forced write failures
	failSyncs  int // countdown of forced fsync failures
	stats      FaultStats
}

// NewFaultFS wraps inner with the given fault plan.
func NewFaultFS(inner FS, cfg FaultConfig) *FaultFS {
	if inner == nil {
		inner = OS()
	}
	return &FaultFS{inner: inner, cfg: cfg, rng: cfg.Seed}
}

// Heal stops all fault injection; the FS behaves like its inner FS until
// re-armed. Models the operator freeing disk space or replacing media.
func (f *FaultFS) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.healed = true
	f.failWrites, f.failSyncs = 0, 0
}

// Arm replaces the fault plan and resumes injection.
func (f *FaultFS) Arm(cfg FaultConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg = cfg
	f.rng = cfg.Seed
	f.bytes = 0
	f.healed = false
}

// FailNextWrites forces the next n Write calls to fail, torn like every
// injected write failure, independent of the configured rates.
func (f *FaultFS) FailNextWrites(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.healed = false
	f.failWrites = n
}

// FailNextSyncs forces the next n Sync calls to fail, independent of the
// configured rates.
func (f *FaultFS) FailNextSyncs(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.healed = false
	f.failSyncs = n
}

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultFS) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// next steps the splitmix64 PRNG.
func (f *FaultFS) next() uint64 {
	f.rng += 0x9e3779b97f4a7c15
	z := f.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance draws one deterministic Bernoulli trial at the given rate.
func (f *FaultFS) chance(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return float64(f.next()>>11)/(1<<53) < rate
}

// writeFault decides the fate of an n-byte write. It returns the number
// of prefix bytes that should still land on disk and the error to
// inject, or (n, nil) for a clean write. An injected failure is torn:
// half the data lands, modeling a crash or media error mid-write.
func (f *FaultFS) writeFault(n int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.healed {
		return n, nil
	}
	if f.failWrites > 0 {
		f.failWrites--
		f.stats.WritesFailed++
		return n / 2, fmt.Errorf("faultfs: forced write failure: %w", ErrInjected)
	}
	if lim := f.cfg.ENOSPCAfterBytes; lim > 0 && f.bytes+int64(n) > lim {
		fit := lim - f.bytes
		if fit < 0 {
			fit = 0
		}
		f.bytes = lim
		f.stats.ENOSPCHits++
		return int(fit), fmt.Errorf("faultfs: %w", syscall.ENOSPC)
	}
	if f.chance(f.cfg.WriteErrRate) {
		f.stats.WritesFailed++
		return n / 2, fmt.Errorf("faultfs: injected write error: %w", ErrInjected)
	}
	f.bytes += int64(n)
	return n, nil
}

// syncFault decides whether an fsync fails.
func (f *FaultFS) syncFault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.healed {
		return nil
	}
	if f.failSyncs > 0 {
		f.failSyncs--
		f.stats.SyncsFailed++
		return fmt.Errorf("faultfs: forced fsync failure: %w", ErrInjected)
	}
	if f.chance(f.cfg.SyncErrRate) {
		f.stats.SyncsFailed++
		return fmt.Errorf("faultfs: injected fsync error: %w", ErrInjected)
	}
	return nil
}

// opFault decides whether a metadata operation (create, rename, remove)
// fails.
func (f *FaultFS) opFault(kind string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.healed {
		return nil
	}
	if f.chance(f.cfg.OpErrRate) {
		f.stats.OpsFailed++
		return fmt.Errorf("faultfs: injected %s error: %w", kind, ErrInjected)
	}
	return nil
}

// faultFile wraps a File, consulting the parent FaultFS on every write
// and fsync.
type faultFile struct {
	File
	fs *FaultFS
}

func (ff *faultFile) Write(p []byte) (int, error) {
	keep, err := ff.fs.writeFault(len(p))
	if err != nil {
		if keep > 0 {
			// Torn write: the prefix reaches the disk before the failure.
			if n, werr := ff.File.Write(p[:keep]); werr != nil {
				return n, err
			}
		}
		return keep, err
	}
	return ff.File.Write(p)
}

func (ff *faultFile) Sync() error {
	if err := ff.fs.syncFault(); err != nil {
		return err
	}
	return ff.File.Sync()
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	if flag&os.O_CREATE != 0 {
		if err := f.opFault("create"); err != nil {
			return nil, err
		}
	}
	inner, err := f.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) { return f.inner.ReadFile(path) }

func (f *FaultFS) ReadDir(path string) ([]string, error) { return f.inner.ReadDir(path) }

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.opFault("rename"); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(path string) error {
	if err := f.opFault("remove"); err != nil {
		return err
	}
	return f.inner.Remove(path)
}

func (f *FaultFS) SyncDir(path string) error { return f.inner.SyncDir(path) }
