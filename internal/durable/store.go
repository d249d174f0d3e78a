package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EntrySchema identifies the cache-entry file layout; bump on
// incompatible changes.
const EntrySchema = "apusim-cache-entry/v1"

// QuarantineKeep bounds the quarantine directory: only the newest
// entries up to this count are kept, so a daemon that keeps hitting
// corrupt media cannot fill the disk with evidence.
const QuarantineKeep = 32

// Entry is one stored result: the terminal state a run reached, how many
// attempts produced it, and the exact manifest bytes.
type Entry struct {
	State    string
	Attempts int
	Manifest []byte
}

// StoreStats is a point-in-time snapshot of the store's counters.
type StoreStats struct {
	// Entries is the number of verified entries resident on disk.
	Entries int
	// Bytes is the total size of resident entry files.
	Bytes int64
	// Quarantined counts corrupt or truncated entries moved aside —
	// cumulative since Open, including the open-time sweep.
	Quarantined int64
	// QuarantinePruned counts quarantined files deleted to keep the
	// quarantine dir bounded at QuarantineKeep entries.
	QuarantinePruned int64
	// PutErrors counts writes that failed to reach disk.
	PutErrors int64
}

// quarantineSeq disambiguates quarantine file names minted in the same
// nanosecond, process-wide.
var quarantineSeq atomic.Int64

// Store is a disk-backed content-addressed entry store. Keys are
// "sha256:<64 hex>" content addresses; each entry lives in its own file
// under dir/cache, written atomically and verified by a checksum footer
// on every read. Corrupt entries are quarantined into dir/quarantine and
// never served. All methods are safe for concurrent use.
type Store struct {
	fs         FS
	dir        string // entries
	quarantine string
	tmp        string

	mu       sync.Mutex
	resident map[string]int64 // entry file name → size on disk
	stats    StoreStats
}

// OpenStore opens (creating if needed) the store rooted at dir on the
// given filesystem (nil = the real one). Leftover temporary files from
// an interrupted write are removed, and every resident entry is
// verified: corrupt or truncated files are quarantined immediately, so
// the store OpenStore returns serves only intact entries.
func OpenStore(fsys FS, dir string) (*Store, error) {
	if fsys == nil {
		fsys = OS()
	}
	s := &Store{
		fs:         fsys,
		dir:        filepath.Join(dir, "cache"),
		quarantine: filepath.Join(dir, "quarantine"),
		tmp:        filepath.Join(dir, "tmp"),
		resident:   make(map[string]int64),
	}
	for _, d := range []string{s.dir, s.quarantine, s.tmp} {
		if err := fsys.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("durable: creating %s: %w", d, err)
		}
	}
	// A crash mid-Put leaves a tmp file; the rename never happened, so
	// the entry simply does not exist yet and the leftover is garbage.
	if tmps, err := fsys.ReadDir(s.tmp); err == nil {
		for _, name := range tmps {
			_ = fsys.Remove(filepath.Join(s.tmp, name))
		}
	}
	ents, err := fsys.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: scanning %s: %w", s.dir, err)
	}
	for _, name := range ents {
		if !strings.HasSuffix(name, ".entry") {
			continue
		}
		path := filepath.Join(s.dir, name)
		data, err := fsys.ReadFile(path)
		if err != nil {
			s.quarantineFile(name)
			continue
		}
		if _, err := DecodeEntry(data); err != nil {
			s.quarantineFile(name)
			continue
		}
		s.mu.Lock()
		s.resident[name] = int64(len(data))
		s.stats.Entries++
		s.stats.Bytes += int64(len(data))
		s.mu.Unlock()
	}
	s.pruneQuarantine()
	return s, nil
}

// entryName maps a content address onto its entry file name, rejecting
// keys that are not well-formed addresses (which also blocks path
// traversal — a valid name is always 64 hex digits plus ".entry").
func entryName(key string) (string, error) {
	hexPart, ok := strings.CutPrefix(key, "sha256:")
	if !ok || len(hexPart) != 64 {
		return "", fmt.Errorf("durable: key %q is not a sha256 content address", key)
	}
	if _, err := hex.DecodeString(hexPart); err != nil {
		return "", fmt.Errorf("durable: key %q is not a sha256 content address", key)
	}
	return hexPart + ".entry", nil
}

// EncodeEntry renders an entry in the on-disk layout: a header line
// naming the schema, state, attempts, and manifest length; the manifest
// bytes; and a footer line holding the SHA-256 of everything before it.
func EncodeEntry(e Entry) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s %d %d\n", EntrySchema, e.State, e.Attempts, len(e.Manifest))
	b.Write(e.Manifest)
	sum := sha256.Sum256(b.Bytes())
	fmt.Fprintf(&b, "sha256:%s\n", hex.EncodeToString(sum[:]))
	return b.Bytes()
}

// entryFooterLen is the fixed size of the checksum footer:
// "sha256:" + 64 hex digits + newline.
const entryFooterLen = len("sha256:") + 64 + 1

// DecodeEntry parses and verifies an on-disk entry. Any deviation —
// short file, bad header, length mismatch, checksum mismatch — returns
// an error; the caller must treat the file as corrupt and never serve
// its contents.
func DecodeEntry(data []byte) (Entry, error) {
	if len(data) < entryFooterLen {
		return Entry{}, fmt.Errorf("durable: entry truncated to %d bytes", len(data))
	}
	body, footer := data[:len(data)-entryFooterLen], data[len(data)-entryFooterLen:]
	sum := sha256.Sum256(body)
	want := "sha256:" + hex.EncodeToString(sum[:]) + "\n"
	if string(footer) != want {
		return Entry{}, fmt.Errorf("durable: entry checksum mismatch")
	}
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		return Entry{}, fmt.Errorf("durable: entry missing header line")
	}
	fields := strings.Fields(string(body[:nl]))
	if len(fields) != 4 || fields[0] != EntrySchema {
		return Entry{}, fmt.Errorf("durable: entry header %q is not %s", string(body[:nl]), EntrySchema)
	}
	attempts, err := strconv.Atoi(fields[2])
	if err != nil {
		return Entry{}, fmt.Errorf("durable: entry attempts %q: %w", fields[2], err)
	}
	length, err := strconv.Atoi(fields[3])
	if err != nil {
		return Entry{}, fmt.Errorf("durable: entry length %q: %w", fields[3], err)
	}
	manifest := body[nl+1:]
	if len(manifest) != length {
		return Entry{}, fmt.Errorf("durable: entry holds %d manifest bytes, header says %d", len(manifest), length)
	}
	return Entry{State: fields[1], Attempts: attempts, Manifest: append([]byte(nil), manifest...)}, nil
}

// Get returns the entry stored under key. A missing entry returns ok
// false; a corrupt one is quarantined and also reported missing, so
// callers re-simulate instead of consuming damaged bytes.
func (s *Store) Get(key string) (Entry, bool) {
	name, err := entryName(key)
	if err != nil {
		return Entry{}, false
	}
	data, err := s.fs.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return Entry{}, false
	}
	e, err := DecodeEntry(data)
	if err != nil {
		s.quarantineFile(name)
		return Entry{}, false
	}
	return e, true
}

// Put stores an entry under key atomically: the encoded bytes are
// written to a private tmp file, fsynced, and renamed into place, so a
// crash at any point leaves either the old entry or the new one — never
// a torn file. Re-putting a key replaces its entry.
func (s *Store) Put(key string, e Entry) error {
	name, err := entryName(key)
	if err != nil {
		s.countPutError()
		return err
	}
	data := EncodeEntry(e)
	if err := writeAtomic(s.fs, filepath.Join(s.tmp, name+".tmp"), filepath.Join(s.dir, name), data); err != nil {
		s.countPutError()
		return fmt.Errorf("durable: storing %s: %w", key, err)
	}
	s.mu.Lock()
	if old, ok := s.resident[name]; ok {
		s.stats.Bytes -= old
	} else {
		s.stats.Entries++
	}
	s.resident[name] = int64(len(data))
	s.stats.Bytes += int64(len(data))
	s.mu.Unlock()
	return nil
}

// writeAtomic writes data to tmp, fsyncs it, renames it over dst, and
// fsyncs the destination directory (best effort) so the rename itself
// survives a crash.
func writeAtomic(fsys FS, tmp, dst string, data []byte) error {
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, dst); err != nil {
		fsys.Remove(tmp)
		return err
	}
	_ = fsys.SyncDir(filepath.Dir(dst))
	return nil
}

// quarantineFile moves a corrupt entry aside so it is never read again.
// The quarantine name carries the wall-clock nanos and a process-wide
// sequence number, so two quarantines of the same entry — even in the
// same nanosecond — can never collide.
func (s *Store) quarantineFile(name string) {
	src := filepath.Join(s.dir, name)
	qname := fmt.Sprintf("%s.%d.%06d", name, time.Now().UnixNano(), quarantineSeq.Add(1))
	if err := s.fs.Rename(src, filepath.Join(s.quarantine, qname)); err != nil {
		// The file may already be gone (racing quarantine); either way
		// it is no longer servable.
		_ = s.fs.Remove(src)
	}
	s.mu.Lock()
	if old, ok := s.resident[name]; ok {
		delete(s.resident, name)
		s.stats.Entries--
		s.stats.Bytes -= old
	}
	s.stats.Quarantined++
	s.mu.Unlock()
	s.pruneQuarantine()
}

// pruneQuarantine bounds the quarantine dir to the newest QuarantineKeep
// files. Age comes from the nanotime embedded in the quarantine name, so
// pruning is stable even on filesystems with coarse timestamps.
func (s *Store) pruneQuarantine() {
	names, err := s.fs.ReadDir(s.quarantine)
	if err != nil || len(names) <= QuarantineKeep {
		return
	}
	type qfile struct {
		name string
		age  int64
	}
	files := make([]qfile, 0, len(names))
	for _, name := range names {
		files = append(files, qfile{name: name, age: quarantineAge(name)})
	}
	sort.Slice(files, func(i, k int) bool {
		if files[i].age != files[k].age {
			return files[i].age < files[k].age // oldest first
		}
		return files[i].name < files[k].name
	})
	var pruned int64
	for _, f := range files[:len(files)-QuarantineKeep] {
		if s.fs.Remove(filepath.Join(s.quarantine, f.name)) == nil {
			pruned++
		}
	}
	if pruned > 0 {
		s.mu.Lock()
		s.stats.QuarantinePruned += pruned
		s.mu.Unlock()
	}
}

// quarantineAge extracts the quarantine timestamp from a file name
// (<entry>.<unixnano>.<seq>); a name without one counts as oldest.
func quarantineAge(name string) int64 {
	parts := strings.Split(name, ".")
	if len(parts) >= 3 {
		if ns, err := strconv.ParseInt(parts[len(parts)-2], 10, 64); err == nil {
			return ns
		}
	}
	return 0
}

func (s *Store) countPutError() {
	s.mu.Lock()
	s.stats.PutErrors++
	s.mu.Unlock()
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
