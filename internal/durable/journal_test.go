package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func submitRec(i int) Record {
	return Record{
		Op:     OpSubmit,
		Job:    fmt.Sprintf("j-%06d", i),
		Seq:    i,
		Tenant: "default",
		Key:    testKey(fmt.Sprintf("spec-%d", i)),
		Spec:   json.RawMessage(fmt.Sprintf(`{"experiment":"exp-%d"}`, i)),
	}
}

// openDir is the test shorthand for opening a segmented journal on the
// real filesystem with default options.
func openDir(t *testing.T, dir string) (*Journal, []Record, DirReplayStats) {
	t.Helper()
	j, recs, stats, err := OpenJournalDir(nil, dir, JournalOptions{})
	if err != nil {
		t.Fatalf("OpenJournalDir: %v", err)
	}
	return j, recs, stats
}

// segmentFiles lists the journal files currently under dir, sorted.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := OS().ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var out []string
	for _, n := range names {
		if isJournalFile(n) {
			out = append(out, n)
		}
	}
	return out
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs, stats := openDir(t, dir)
	if len(recs) != 0 || stats.Records != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []Record{
		submitRec(1),
		{Op: OpStart, Job: "j-000001"},
		{Op: OpDone, Job: "j-000001", State: "ok", Attempts: 1},
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, got, stats := openDir(t, dir)
	if stats.Corrupt != 0 || stats.TruncatedTails != 0 || stats.BadHeaders != 0 {
		t.Errorf("clean journal replayed with damage: %+v", stats)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w := want[i]
		w.Schema = JournalSchema
		g := got[i]
		if g.Op != w.Op || g.Job != w.Job || g.State != w.State || g.Seq != w.Seq ||
			g.Key != w.Key || !bytes.Equal(g.Spec, w.Spec) {
			t.Errorf("record %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestJournalTruncatedTailDiscardedNondestructively(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openDir(t, dir)
	for i := 0; i < 3; i++ {
		if err := j.AppendSync(submitRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop the segment inside the last record.
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs, stats := openDir(t, dir)
	if len(recs) != 2 || stats.TruncatedTails != 1 {
		t.Fatalf("replayed %d records (stats %+v), want 2 with one truncated tail", len(recs), stats)
	}
	// Replay is read-only: the torn segment is untouched, and appends land
	// in a fresh segment past it — the intact records plus the new one all
	// replay, with the torn tail still (harmlessly) reported.
	if err := j2.AppendSync(submitRec(99)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, stats = openDir(t, dir)
	if len(recs) != 3 || stats.Corrupt != 0 {
		t.Errorf("post-heal replay: %d records, stats %+v; want 3 intact", len(recs), stats)
	}
	if recs[2].Seq != 99 {
		t.Errorf("post-heal append lost: %+v", recs[2])
	}
}

func TestJournalSkipsBitFlippedRecordAndKeepsRest(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openDir(t, dir)
	for i := 0; i < 3; i++ {
		if err := j.Append(submitRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the middle record's JSON body (line 0 is the
	// segment header, line 1 the first record).
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("segment has %d lines", len(lines))
	}
	mid := len(lines[0]) + len(lines[1]) + len(lines[2])/2
	data[mid] ^= 0x20
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, recs, stats := openDir(t, dir)
	if stats.Corrupt != 1 || len(recs) != 2 {
		t.Fatalf("replayed %d records with %d corrupt, want 2 and 1", len(recs), stats.Corrupt)
	}
	if recs[0].Seq != 0 || recs[1].Seq != 2 {
		t.Errorf("surviving records %v, want seq 0 and 2", []int{recs[0].Seq, recs[1].Seq})
	}
}

func TestJournalGroupCommitBatchesSyncs(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openDir(t, dir)
	defer j.Close()
	const writers = 32
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.AppendSync(submitRec(i)); err != nil {
				t.Errorf("AppendSync: %v", err)
			}
		}(i)
	}
	wg.Wait()
	st := j.Stats()
	if st.Appends != writers {
		t.Errorf("appends = %d, want %d", st.Appends, writers)
	}
	if st.Syncs > st.Appends {
		t.Errorf("syncs (%d) exceed appends (%d): batching never engaged", st.Syncs, st.Appends)
	}
	// Everything must be durable and intact.
	_, recs, stats := openDir(t, dir)
	if len(recs) != writers || stats.Corrupt != 0 {
		t.Errorf("replayed %d records (%d corrupt), want %d clean", len(recs), stats.Corrupt, writers)
	}
}

func TestJournalRotatesSegmentsAtSizeCap(t *testing.T) {
	dir := t.TempDir()
	// A tiny cap forces rotation every couple of records.
	j, _, _, err := OpenJournalDir(nil, dir, JournalOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := j.AppendSync(submitRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", segs)
	}
	if st := j.Stats(); st.Segments != int64(len(segs)) {
		t.Errorf("Stats.Segments = %d, disk has %d", st.Segments, len(segs))
	}
	_, recs, stats := openDir(t, dir)
	if len(recs) != n || stats.Corrupt != 0 || stats.BadHeaders != 0 {
		t.Fatalf("multi-segment replay: %d records, stats %+v; want %d clean", len(recs), stats, n)
	}
	for i, rec := range recs {
		if rec.Seq != i {
			t.Fatalf("record %d has seq %d: cross-segment order lost", i, rec.Seq)
		}
	}
}

func TestJournalCheckpointRetiresOldSegments(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournalDir(nil, dir, JournalOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append(submitRec(i)); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Record{Op: OpDone, Job: fmt.Sprintf("j-%06d", i), State: "ok"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(segmentFiles(t, dir)) < 2 {
		t.Fatalf("precondition: expected several segments, got %v", segmentFiles(t, dir))
	}
	// Keep only one live job; everything else is terminal history.
	live := []Record{submitRec(42)}
	if err := j.Checkpoint(live); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	segs := segmentFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("checkpoint left %v, want exactly one segment", segs)
	}
	if st := j.Stats(); st.Checkpoints != 1 {
		t.Errorf("post-checkpoint stats %+v", st)
	}
	// The journal keeps appending into the checkpointed segment.
	if err := j.AppendSync(Record{Op: OpStart, Job: "j-000042"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _ := openDir(t, dir)
	if len(recs) != 2 || recs[0].Seq != 42 || recs[1].Op != OpStart {
		t.Errorf("checkpointed journal replayed %+v, want the live submit plus the post-checkpoint start", recs)
	}
}

func TestJournalMissingMiddleSegmentCounted(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournalDir(nil, dir, JournalOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// SegmentBytes=1 rotates on every append: one record per segment.
	for i := 0; i < 3; i++ {
		if err := j.AppendSync(submitRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segmentName(2))); err != nil {
		t.Fatal(err)
	}
	j2, recs, stats := openDir(t, dir)
	if stats.MissingSegments != 1 || len(recs) != 2 {
		t.Fatalf("replayed %d records, stats %+v; want 2 with one missing segment", len(recs), stats)
	}
	// The writer must continue numbering past the highest surviving index.
	if err := j2.AppendSync(submitRec(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(4))); err != nil {
		t.Errorf("expected the next append in segment 4: %v", err)
	}
	j2.Close()
}

func TestJournalBadSegmentHeaderStillReplaysRecords(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openDir(t, dir)
	for i := 0; i < 3; i++ {
		if err := j.AppendSync(submitRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[3] ^= 0x01 // damage the header line
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, stats := openDir(t, dir)
	if stats.BadHeaders != 1 || len(recs) != 3 {
		t.Fatalf("replayed %d records, stats %+v; want 3 despite one bad header", len(recs), stats)
	}
}

// TestJournalReplay10kUnder1s pins the acceptance bound: a cold-start
// replay of a 10 000-record journal must complete in under a second,
// segments included.
func TestJournalReplay10kUnder1s(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openDir(t, dir)
	const n = 10_000
	for i := 0; i < n; i++ {
		if err := j.Append(submitRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, recs, stats := openDir(t, dir)
	elapsed := time.Since(start)
	if len(recs) != n || stats.Corrupt != 0 {
		t.Fatalf("replayed %d records (%d corrupt), want %d clean", len(recs), stats.Corrupt, n)
	}
	if elapsed >= time.Second {
		t.Errorf("10k-record replay took %v, want < 1s", elapsed)
	}
}
