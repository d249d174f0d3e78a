package durable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// JournalSchema identifies the journal record layout; bump on
// incompatible changes.
const JournalSchema = "apusim-journal/v1"

// SegmentSchema identifies a journal segment's header line; bump on
// incompatible changes.
const SegmentSchema = "apusim-journal-seg/v1"

// Op is a journal record's operation.
type Op string

// Journal operations: a job is submitted (admitted, durable before the
// client sees 202), started (a worker picked it up), and done (reached a
// terminal state).
const (
	OpSubmit Op = "submit"
	OpStart  Op = "start"
	OpDone   Op = "done"
)

// Record is one journal entry. Submit records carry the job's identity
// and normalized spec; start and done records reference the job by ID.
type Record struct {
	Schema string `json:"schema"`
	Op     Op     `json:"op"`
	Job    string `json:"job"`
	// Seq is the job's sequence number (submit only), so ID allocation
	// resumes past every journaled job after a crash.
	Seq int `json:"seq,omitempty"`
	// Tenant, Key, and Spec describe a submission: the billing tenant, the
	// spec's content address, and the spec JSON.
	Tenant string          `json:"tenant,omitempty"`
	Key    string          `json:"key,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	// State and Attempts describe a terminal outcome (done only).
	State    string `json:"state,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
}

// ReplayStats describes what a single-stream replay found.
type ReplayStats struct {
	// Records is the number of intact records replayed.
	Records int
	// Corrupt is the number of complete lines that failed CRC or JSON
	// validation and were skipped.
	Corrupt int
	// TruncatedTail reports whether the stream ended mid-record (the
	// crash landed inside an append); the partial tail is discarded.
	TruncatedTail bool
	// ValidBytes is the length of the stream prefix ending at the last
	// complete line.
	ValidBytes int64
}

// frameRecord renders one record in the on-disk framing:
// "crc32:<8 hex of the JSON> <JSON>\n". The CRC guards the record body,
// so a bit flip inside a line is detected and skipped without losing the
// records after it (the newline framing still holds).
func frameRecord(rec Record) ([]byte, error) {
	rec.Schema = JournalSchema
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("durable: marshaling journal record: %w", err)
	}
	return []byte(fmt.Sprintf("crc32:%08x %s\n", crc32.ChecksumIEEE(body), body)), nil
}

// parseLine validates one complete journal line. It returns ok false for
// any damage: bad framing, CRC mismatch, malformed JSON, or a schema the
// reader does not know.
func parseLine(line []byte) (Record, bool) {
	const prefixLen = len("crc32:") + 8 // + " "
	if len(line) < prefixLen+1 || string(line[:6]) != "crc32:" || line[prefixLen] != ' ' {
		return Record{}, false
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[6:prefixLen]), "%08x", &want); err != nil {
		return Record{}, false
	}
	body := line[prefixLen+1:]
	if crc32.ChecksumIEEE(body) != want {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return Record{}, false
	}
	if rec.Schema != JournalSchema || rec.Job == "" {
		return Record{}, false
	}
	switch rec.Op {
	case OpSubmit, OpStart, OpDone:
	default:
		return Record{}, false
	}
	return rec, true
}

// Replay reads one journal stream and returns every intact record in
// file order. It never fails on damaged input: corrupt lines are skipped
// and counted, and a truncated tail (a crash mid-append) is discarded.
// The returned stats say exactly what was tolerated.
func Replay(r io.Reader) ([]Record, ReplayStats) {
	var (
		recs  []Record
		stats ReplayStats
	)
	br := bufio.NewReader(r)
	var offset int64
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			// Any bytes before EOF without a newline are a torn append.
			if len(line) > 0 {
				stats.TruncatedTail = true
			}
			break
		}
		offset += int64(len(line))
		line = bytes.TrimSuffix(line, []byte("\n"))
		rec, ok := parseLine(line)
		if !ok {
			stats.Corrupt++
			stats.ValidBytes = offset
			continue
		}
		recs = append(recs, rec)
		stats.Records++
		stats.ValidBytes = offset
	}
	return recs, stats
}

// segmentName renders a segment index as its file name, journal.000001
// style. Indices are monotonically increasing; the numeric suffix sorts
// lexicographically up to 999999 and is parsed numerically regardless.
func segmentName(idx int) string { return fmt.Sprintf("journal.%06d", idx) }

// segmentIndexOf parses a journal segment file name. ok is false for
// anything that is not journal.<digits>.
func segmentIndexOf(name string) (int, bool) {
	num, found := strings.CutPrefix(name, "journal.")
	if !found || num == "" {
		return 0, false
	}
	idx, err := strconv.Atoi(num)
	if err != nil || idx <= 0 {
		return 0, false
	}
	return idx, true
}

// isJournalFile reports whether name is a journal segment that a
// checkpoint may retire.
func isJournalFile(name string) bool {
	_, ok := segmentIndexOf(name)
	return ok
}

// segmentHeader renders a segment's first line: the schema, the
// segment's own index, and a CRC over both — so replay can tell a
// damaged header from a missing one.
func segmentHeader(idx int) []byte {
	body := fmt.Sprintf("%s %06d", SegmentSchema, idx)
	return []byte(fmt.Sprintf("%s crc32:%08x\n", body, crc32.ChecksumIEEE([]byte(body))))
}

// parseSegmentHeader validates a segment header line against the index
// implied by the file name.
func parseSegmentHeader(line []byte, wantIdx int) bool {
	fields := strings.Fields(string(line))
	if len(fields) != 3 || fields[0] != SegmentSchema {
		return false
	}
	idx, err := strconv.Atoi(fields[1])
	if err != nil || idx != wantIdx {
		return false
	}
	var crc uint32
	if _, err := fmt.Sscanf(fields[2], "crc32:%08x", &crc); err != nil {
		return false
	}
	return crc == crc32.ChecksumIEEE([]byte(fields[0]+" "+fields[1]))
}

// DirReplayStats describes what a whole-directory replay found.
type DirReplayStats struct {
	// Segments is the number of journal segments replayed.
	Segments int
	// Records and Corrupt aggregate the per-segment replay counts.
	Records int
	Corrupt int
	// TruncatedTails counts segments that ended mid-record.
	TruncatedTails int
	// BadHeaders counts segments whose header line was damaged or
	// missing; their records are still replayed.
	BadHeaders int
	// MissingSegments counts gaps in the segment numbering — segments
	// that existed (their successors reference later indices) but are
	// gone. Replay proceeds; recovery semantics absorb the loss.
	MissingSegments int
	// Unreadable counts journal files that could not be read at all.
	Unreadable int
}

// ReplayDir replays every journal segment under dir in index order and
// returns the combined record stream. It is read-only and never fails on
// damaged contents; only an unlistable directory returns an error. The
// returned maxIdx is the highest segment index seen (0 if none), so a
// writer can continue the numbering.
func ReplayDir(fsys FS, dir string) ([]Record, DirReplayStats, int, error) {
	if fsys == nil {
		fsys = OS()
	}
	var (
		recs   []Record
		stats  DirReplayStats
		maxIdx int
	)
	names, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, stats, 0, nil
		}
		return nil, stats, 0, fmt.Errorf("durable: listing journal dir: %w", err)
	}
	var idxs []int
	for _, name := range names {
		if idx, ok := segmentIndexOf(name); ok {
			idxs = append(idxs, idx)
		}
	}
	sortInts(idxs)
	prev := 0
	for _, idx := range idxs {
		if idx > maxIdx {
			maxIdx = idx
		}
		if prev != 0 && idx != prev+1 {
			stats.MissingSegments += idx - prev - 1
		}
		prev = idx
		r, rs, ok := replayOneSegment(fsys, filepath.Join(dir, segmentName(idx)), idx)
		if !ok {
			stats.Unreadable++
			continue
		}
		stats.Segments++
		recs = append(recs, r...)
		stats.Records += rs.Records
		stats.Corrupt += rs.Corrupt
		if rs.TruncatedTail {
			stats.TruncatedTails++
		}
		if rs.badHeader {
			stats.BadHeaders++
		}
	}
	return recs, stats, maxIdx, nil
}

// segReplay is ReplayStats plus the header verdict for one segment.
type segReplay struct {
	ReplayStats
	badHeader bool
}

// replayOneSegment reads one journal segment. Its first line is expected
// to be the segment header and is validated; a damaged header is counted
// and the remaining lines are replayed anyway — a header bit flip never
// costs intact records.
func replayOneSegment(fsys FS, path string, idx int) ([]Record, segReplay, bool) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, segReplay{}, false
	}
	var out segReplay
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		// The whole segment is a torn header; nothing to replay.
		out.badHeader = len(data) > 0
		out.TruncatedTail = len(data) > 0
		return nil, out, true
	}
	if parseSegmentHeader(data[:nl], idx) {
		data = data[nl+1:]
	} else {
		// Feed the first line to the record parser too: if the "header"
		// was actually a record (or damage), it is counted there without
		// losing anything after it.
		out.badHeader = true
	}
	recs, rs := Replay(bytes.NewReader(data))
	out.Records = rs.Records
	out.Corrupt = rs.Corrupt
	out.TruncatedTail = rs.TruncatedTail
	return recs, out, true
}

// sortInts sorts a small int slice ascending (insertion sort; segment
// counts are bounded by checkpointing).
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// JournalOptions tunes a segmented journal.
type JournalOptions struct {
	// SegmentBytes is the rotation threshold: once the active segment
	// reaches this size, it is sealed (synced, closed) and appends move
	// to a fresh segment. <= 0 uses the 1 MiB default.
	SegmentBytes int64
}

// DefaultSegmentBytes is the rotation threshold when JournalOptions does
// not name one.
const DefaultSegmentBytes = 1 << 20

// Journal is an append-only, segment-rotated job journal with batched
// fsync. Appends go to the active segment (journal.NNNNNN); when it
// reaches the size cap it is sealed and a new segment starts, so a
// checkpoint can retire whole files instead of rewriting one ever-
// growing log. Append is a buffered write; Sync is a group commit —
// concurrent callers waiting on durability share one disk sync. All
// methods are safe for concurrent use.
type Journal struct {
	fs       FS
	dir      string
	segBytes int64

	mu          sync.Mutex // guards the active segment, buffer, and write generation
	f           File
	w           *bufio.Writer
	nextIndex   int
	activeBytes int64
	writeGen    int64
	appends     int64
	segments    int64
	checkpoints int64
	closed      bool

	syncMu    sync.Mutex // serializes fsyncs; batches waiters behind one
	syncedGen int64
	syncs     int64
}

// OpenJournalDir opens the segmented journal rooted at dir (creating the
// directory if needed), replays every intact record across all segments
// — tolerating torn tails, corrupt lines, damaged headers, and missing
// segments — and returns the journal positioned to append into a fresh
// segment. Replay is read-only: damaged files are left untouched until a
// checkpoint retires them, so opening never destroys forensic evidence.
func OpenJournalDir(fsys FS, dir string, opts JournalOptions) (*Journal, []Record, DirReplayStats, error) {
	if fsys == nil {
		fsys = OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, DirReplayStats{}, fmt.Errorf("durable: creating journal dir: %w", err)
	}
	recs, stats, maxIdx, err := ReplayDir(fsys, dir)
	if err != nil {
		return nil, nil, stats, err
	}
	segBytes := opts.SegmentBytes
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	j := &Journal{
		fs:        fsys,
		dir:       dir,
		segBytes:  segBytes,
		nextIndex: maxIdx + 1,
		segments:  int64(stats.Segments),
	}
	return j, recs, stats, nil
}

// ensureActiveLocked opens the next segment for appending, writing its
// header. Callers hold j.mu.
func (j *Journal) ensureActiveLocked() error {
	if j.closed {
		return fmt.Errorf("durable: append on closed journal")
	}
	if j.f != nil {
		return nil
	}
	idx := j.nextIndex
	f, err := j.fs.OpenFile(filepath.Join(j.dir, segmentName(idx)), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: creating journal segment %d: %w", idx, err)
	}
	hdr := segmentHeader(idx)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("durable: writing segment %d header: %w", idx, err)
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	j.nextIndex = idx + 1
	j.activeBytes = int64(len(hdr))
	j.segments++
	j.writeGen++ // the header itself needs the next group commit
	_ = j.fs.SyncDir(j.dir)
	return nil
}

// sealActiveLocked flushes, syncs, and closes the active segment. The
// file is closed even on error so a failed seal does not wedge the
// journal on a broken descriptor. Callers hold j.mu.
func (j *Journal) sealActiveLocked() error {
	if j.f == nil {
		return nil
	}
	flushErr := j.w.Flush()
	var syncErr error
	if flushErr == nil {
		syncErr = j.f.Sync()
	}
	closeErr := j.f.Close()
	j.f, j.w = nil, nil
	if flushErr != nil {
		return fmt.Errorf("durable: flushing sealed segment: %w", flushErr)
	}
	if syncErr != nil {
		return fmt.Errorf("durable: syncing sealed segment: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("durable: closing sealed segment: %w", closeErr)
	}
	return nil
}

// Append buffers one record, rotating to a new segment when the active
// one has reached the size cap. The record does not reach disk until
// Sync (or an incidental buffer flush); callers that need it durable
// before acting call Sync afterwards.
func (j *Journal) Append(rec Record) error {
	framed, err := frameRecord(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil && j.activeBytes >= j.segBytes {
		if err := j.sealActiveLocked(); err != nil {
			return err
		}
	}
	if err := j.ensureActiveLocked(); err != nil {
		return err
	}
	if _, err := j.w.Write(framed); err != nil {
		return fmt.Errorf("durable: appending journal record: %w", err)
	}
	j.activeBytes += int64(len(framed))
	j.writeGen++
	j.appends++
	return nil
}

// Sync makes every record appended so far durable. Concurrent syncs
// batch: while one fsync runs, later callers queue behind it, and the
// first one through covers everything written in the meantime — so a
// burst of submissions costs one disk sync, not one each.
func (j *Journal) Sync() error {
	j.mu.Lock()
	gen := j.writeGen
	j.mu.Unlock()

	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	if j.syncedGen >= gen {
		return nil // a batched sync already covered this record
	}
	j.mu.Lock()
	cur := j.writeGen
	var err error
	f := j.f
	if j.w != nil {
		err = j.w.Flush()
	}
	closed := j.closed
	j.mu.Unlock()
	if err != nil {
		return fmt.Errorf("durable: flushing journal: %w", err)
	}
	if f == nil {
		if closed {
			return fmt.Errorf("durable: sync on closed journal")
		}
		// No active segment: everything pending was sealed (and synced)
		// with its segment.
		j.syncedGen = cur
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("durable: syncing journal: %w", err)
	}
	j.syncedGen = cur
	j.syncs++
	return nil
}

// AppendSync appends one record and returns once it is durable.
func (j *Journal) AppendSync(rec Record) error {
	if err := j.Append(rec); err != nil {
		return err
	}
	return j.Sync()
}

// Checkpoint rewrites the journal as a single fresh segment holding just
// the given records — the live set — and retires every older journal
// file, bounding disk usage and boot-time replay cost. The new segment
// is written and fsynced before anything is deleted, so a crash at any
// point leaves a replayable journal (duplicate records across old and
// new segments collapse in recovery: first submit wins, done is final).
//
// Callers must ensure no submit record can be appended concurrently
// (the service holds its scheduling lock); racing start/done appends to
// the retired active segment are safe to lose — recovery treats both as
// idempotent hints.
func (j *Journal) Checkpoint(live []Record) error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("durable: checkpoint on closed journal")
	}
	idx := j.nextIndex
	name := segmentName(idx)
	path := filepath.Join(j.dir, name)
	var buf bytes.Buffer
	buf.Write(segmentHeader(idx))
	for _, rec := range live {
		framed, err := frameRecord(rec)
		if err != nil {
			return err
		}
		buf.Write(framed)
	}
	f, err := j.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: creating checkpoint segment: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		_ = j.fs.Remove(path)
		return fmt.Errorf("durable: writing checkpoint segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = j.fs.Remove(path)
		return fmt.Errorf("durable: syncing checkpoint segment: %w", err)
	}
	_ = j.fs.SyncDir(j.dir)

	// The checkpoint is durable: swap it in as the active segment and
	// retire everything older (best effort — leftovers replay as
	// duplicates and are retired by the next checkpoint).
	if j.f != nil {
		_ = j.f.Close()
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	j.nextIndex = idx + 1
	j.activeBytes = int64(buf.Len())
	j.writeGen++
	j.syncedGen = j.writeGen // everything live is in the synced segment
	j.checkpoints++
	remaining := int64(1)
	if names, err := j.fs.ReadDir(j.dir); err == nil {
		for _, nm := range names {
			if nm == name || !isJournalFile(nm) {
				continue
			}
			if j.fs.Remove(filepath.Join(j.dir, nm)) != nil {
				remaining++
			}
		}
	}
	j.segments = remaining
	return nil
}

// NextSegment reports the index the journal's next segment or checkpoint
// takes. Indexes only grow while the directory lives: a reopened journal
// resumes past the highest segment on disk.
func (j *Journal) NextSegment() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextIndex
}

// JournalStats is a snapshot of the journal's write counters.
type JournalStats struct {
	// Appends is the number of records appended; Syncs is the number of
	// disk syncs performed. Syncs < Appends under load is the batching
	// working.
	Appends int64
	Syncs   int64
	// Segments is the number of journal files currently on disk;
	// Checkpoints counts compactions performed.
	Segments    int64
	Checkpoints int64
}

// Stats returns a snapshot of the journal counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	st := JournalStats{
		Appends:     j.appends,
		Segments:    j.segments,
		Checkpoints: j.checkpoints,
	}
	j.mu.Unlock()
	j.syncMu.Lock()
	st.Syncs = j.syncs
	j.syncMu.Unlock()
	return st
}

// Close flushes, syncs, and closes the journal.
func (j *Journal) Close() error {
	err := j.Sync()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		closeErr := j.f.Close()
		if err == nil {
			err = closeErr
		}
		j.f, j.w = nil, nil
	}
	j.closed = true
	return err
}
