package durable

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// writeSeq performs n one-byte writes through a fresh file on fsys and
// returns the index of every write that failed. Used to compare fault
// sequences across identically-seeded FaultFS instances.
func writeSeq(t *testing.T, fsys FS, path string, n int) []int {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	var failed []int
	for i := 0; i < n; i++ {
		if _, err := f.Write([]byte{byte(i)}); err != nil {
			failed = append(failed, i)
		}
	}
	return failed
}

func TestFaultFSDeterministicAcrossSeeds(t *testing.T) {
	dir := t.TempDir()
	cfg := FaultConfig{Seed: 42, WriteErrRate: 0.3}

	a := writeSeq(t, NewFaultFS(OS(), cfg), filepath.Join(dir, "a"), 200)
	b := writeSeq(t, NewFaultFS(OS(), cfg), filepath.Join(dir, "b"), 200)
	if len(a) == 0 {
		t.Fatal("30% write error rate over 200 writes injected no failures")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %d vs %d failures", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at failure %d: write %d vs %d", i, a[i], b[i])
		}
	}

	c := writeSeq(t, NewFaultFS(OS(), FaultConfig{Seed: 43, WriteErrRate: 0.3}), filepath.Join(dir, "c"), 200)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical failure sequences")
	}
}

func TestFaultFSENOSPCAfterBytesTearsCrossingWrite(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(OS(), FaultConfig{ENOSPCAfterBytes: 10})
	path := filepath.Join(dir, "full")

	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write([]byte("12345678")); err != nil { // 8 bytes: fits
		t.Fatalf("write under limit failed: %v", err)
	}
	// 6 more bytes crosses the 10-byte limit: 2 land, then ENOSPC.
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("crossing write: got err %v, want ENOSPC", err)
	}
	if n != 2 {
		t.Fatalf("crossing write landed %d bytes, want torn prefix of 2", n)
	}
	// The disk is now "full": everything fails.
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("post-limit write: got err %v, want ENOSPC", err)
	}
	f.Close()

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != "12345678ab" {
		t.Fatalf("on-disk bytes = %q, want torn prefix %q", got, "12345678ab")
	}
	if hits := fsys.Stats().ENOSPCHits; hits != 2 {
		t.Fatalf("ENOSPCHits = %d, want 2", hits)
	}
}

func TestFaultFSForcedFailuresAndHeal(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(OS(), FaultConfig{})
	f, err := fsys.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()

	fsys.FailNextSyncs(2)
	for i := 0; i < 2; i++ {
		if err := f.Sync(); !errors.Is(err, ErrInjected) {
			t.Fatalf("forced sync %d: got %v, want ErrInjected", i, err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after countdown drained: %v", err)
	}

	fsys.FailNextWrites(1)
	if n, err := f.Write([]byte("abcd")); !errors.Is(err, ErrInjected) || n != 2 {
		t.Fatalf("forced write: n=%d err=%v, want a torn 2 bytes + ErrInjected", n, err)
	}
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("write after countdown drained: %v", err)
	}

	st := fsys.Stats()
	if st.SyncsFailed != 2 || st.WritesFailed != 1 {
		t.Fatalf("stats = %+v, want 2 failed syncs and 1 failed write", st)
	}

	// Heal stops every kind of injection, even armed countdowns.
	fsys.FailNextWrites(5)
	fsys.FailNextSyncs(5)
	fsys.Heal()
	if _, err := f.Write([]byte("healed")); err != nil {
		t.Fatalf("write after Heal: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after Heal: %v", err)
	}
}

func TestFaultFSTornWriteLeavesPrefix(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(OS(), FaultConfig{})
	path := filepath.Join(dir, "torn")
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	fsys.FailNextWrites(1)
	n, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write: got err %v, want ErrInjected", err)
	}
	if n != 5 {
		t.Fatalf("torn write reported %d bytes, want half (5)", n)
	}
	f.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != "01234" {
		t.Fatalf("on-disk bytes = %q, want torn prefix %q", got, "01234")
	}
}

func TestFaultFSArmResetsPlan(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(OS(), FaultConfig{ENOSPCAfterBytes: 4})
	path := filepath.Join(dir, "arm")
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("abcdefgh")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	// Re-arming resets the byte budget (disk "grew").
	fsys.Arm(FaultConfig{ENOSPCAfterBytes: 1 << 20})
	if _, err := f.Write([]byte("abcdefgh")); err != nil {
		t.Fatalf("write after re-arm: %v", err)
	}

	// Healed FS stays healed until re-armed.
	fsys.Heal()
	fsys.Arm(FaultConfig{ENOSPCAfterBytes: 1})
	if _, err := f.Write([]byte("xx")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Arm after Heal should resume injection, got %v", err)
	}
}
