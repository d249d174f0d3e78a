package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalReplay drives the journal parser and recovery builder with
// arbitrary bytes: truncated tails, interleaved partial records, bit
// soup. The replay must never panic, must be deterministic, and the
// recovery it builds must never double-admit a job ID.
func FuzzJournalReplay(f *testing.F) {
	// Seed with a clean journal, a torn tail, an interleaved partial
	// record, and assorted framing damage.
	var clean bytes.Buffer
	for i := 0; i < 3; i++ {
		framed, err := frameRecord(submitRec(i))
		if err != nil {
			f.Fatal(err)
		}
		clean.Write(framed)
	}
	f.Add(clean.Bytes())
	f.Add(clean.Bytes()[:clean.Len()-7]) // torn tail
	partial := append([]byte(nil), clean.Bytes()...)
	copy(partial[len(partial)/2:], "crc32:00000000 {\"sch") // record spliced mid-file
	f.Add(partial)
	f.Add([]byte("crc32:zzzzzzzz {}\n"))
	f.Add([]byte("apusim-journal/v1 not framed\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(nil))
	dupe, _ := frameRecord(Record{Op: OpSubmit, Job: "j-000001", Seq: 1})
	done, _ := frameRecord(Record{Op: OpDone, Job: "j-000001", State: "ok"})
	f.Add(bytes.Join([][]byte{dupe, dupe, done, dupe}, nil)) // double admit + resurrect attempt

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, stats := Replay(bytes.NewReader(data))
		if stats.Records != len(recs) {
			t.Fatalf("stats.Records %d != %d replayed", stats.Records, len(recs))
		}
		if stats.ValidBytes > int64(len(data)) {
			t.Fatalf("ValidBytes %d exceeds input %d", stats.ValidBytes, len(data))
		}
		// Replay is deterministic.
		recs2, stats2 := Replay(bytes.NewReader(data))
		if !reflect.DeepEqual(recs, recs2) || stats != stats2 {
			t.Fatal("replay is nondeterministic")
		}
		// Re-reading only the valid prefix yields the same records:
		// discarding a torn tail at replay time loses nothing intact.
		prefRecs, prefStats := Replay(bytes.NewReader(data[:stats.ValidBytes]))
		if !reflect.DeepEqual(recs, prefRecs) || prefStats.TruncatedTail {
			t.Fatalf("valid-prefix replay diverged: %d vs %d records", len(prefRecs), len(recs))
		}
		// Recovery must never admit a job ID twice, and a finished job
		// must stay finished.
		seen := make(map[string]bool)
		for _, jr := range BuildRecovery(recs) {
			if jr.Job == "" {
				t.Fatal("recovery entry with empty job ID")
			}
			if seen[jr.Job] {
				t.Fatalf("job %s admitted twice", jr.Job)
			}
			seen[jr.Job] = true
		}
		// Every surviving record round-trips through the framing.
		for _, rec := range recs {
			framed, err := frameRecord(rec)
			if err != nil {
				t.Fatalf("re-framing replayed record: %v", err)
			}
			again, ok := parseLine(bytes.TrimSuffix(framed, []byte("\n")))
			if !ok || again.Op != rec.Op || again.Job != rec.Job {
				t.Fatalf("record %+v does not round-trip", rec)
			}
		}
	})
}

// FuzzJournalDirReplay drives the multi-segment directory replay with
// arbitrary record payloads scattered across segment files, plus
// structural damage the mode byte selects: a missing middle segment, a
// bit-flipped segment header, and a segment torn at its boundary.
// ReplayDir must never panic, must be deterministic, and the recovery
// built from whatever survives must never admit a job ID twice.
func FuzzJournalDirReplay(f *testing.F) {
	var clean bytes.Buffer
	for i := 0; i < 6; i++ {
		framed, err := frameRecord(submitRec(i))
		if err != nil {
			f.Fatal(err)
		}
		clean.Write(framed)
	}
	f.Add(clean.Bytes(), byte(0))
	f.Add(clean.Bytes(), byte(1)) // missing middle segment
	f.Add(clean.Bytes(), byte(2)) // bit-flipped header in segment 1
	f.Add(clean.Bytes(), byte(4)) // torn tail on the last segment
	f.Add(clean.Bytes(), byte(15))
	dupe, _ := frameRecord(Record{Op: OpSubmit, Job: "j-000001", Seq: 1})
	done, _ := frameRecord(Record{Op: OpDone, Job: "j-000001", State: "ok"})
	f.Add(bytes.Join([][]byte{dupe, dupe, done, dupe}, nil), byte(1))
	f.Add([]byte("crc32:zzzzzzzz {}\nnoise\n"), byte(7))
	f.Add([]byte(nil), byte(255))

	f.Fuzz(func(t *testing.T, data []byte, mode byte) {
		dir := t.TempDir()
		// Scatter the payload across three segments.
		third := len(data) / 3
		chunks := [][]byte{data[:third], data[third : 2*third], data[2*third:]}
		for i, chunk := range chunks {
			idx := i + 1
			body := append(append([]byte(nil), segmentHeader(idx)...), chunk...)
			if mode&2 != 0 && i == 0 && len(body) > 0 {
				body[len(body)/2] ^= 0x40 // damage segment 1 (often its header)
			}
			if mode&4 != 0 && i == 2 && len(body) > 1 {
				body = body[:len(body)-len(body)/3] // torn final segment
			}
			if err := os.WriteFile(filepath.Join(dir, segmentName(idx)), body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if mode&1 != 0 {
			if err := os.Remove(filepath.Join(dir, segmentName(2))); err != nil {
				t.Fatal(err)
			}
		}

		recs, stats, maxIdx, err := ReplayDir(nil, dir)
		if err != nil {
			// Only environmental failures (unreadable dir) may error; the
			// directory we just wrote is readable.
			t.Fatalf("ReplayDir: %v", err)
		}
		if stats.Records != len(recs) {
			t.Fatalf("stats.Records %d != %d replayed", stats.Records, len(recs))
		}
		if maxIdx < 3 {
			t.Fatalf("maxIdx %d below highest written segment 3", maxIdx)
		}
		if mode&1 != 0 && stats.MissingSegments == 0 {
			t.Fatal("removed middle segment not counted missing")
		}
		// Replay is deterministic and non-destructive: a second pass over
		// the same directory sees the same bytes and yields the same state.
		recs2, stats2, maxIdx2, err2 := ReplayDir(nil, dir)
		if err2 != nil || maxIdx2 != maxIdx || !reflect.DeepEqual(recs, recs2) || stats != stats2 {
			t.Fatalf("directory replay nondeterministic: %v / %+v vs %+v", err2, stats, stats2)
		}
		// Recovery over the surviving records never double-admits.
		seen := make(map[string]bool)
		for _, jr := range BuildRecovery(recs) {
			if jr.Job == "" {
				t.Fatal("recovery entry with empty job ID")
			}
			if seen[jr.Job] {
				t.Fatalf("job %s admitted twice", jr.Job)
			}
			seen[jr.Job] = true
		}
		// The directory stays appendable after any damage: opening it for
		// writing lands new records in a fresh segment that replays.
		j, _, _, err := OpenJournalDir(nil, dir, JournalOptions{})
		if err != nil {
			t.Fatalf("OpenJournalDir after damage: %v", err)
		}
		if err := j.AppendSync(Record{Op: OpSubmit, Job: "j-fresh", Seq: 999999}); err != nil {
			t.Fatalf("append after damage: %v", err)
		}
		j.Close()
		recs3, _, _, err := ReplayDir(nil, dir)
		if err != nil {
			t.Fatalf("ReplayDir after append: %v", err)
		}
		found := false
		for _, r := range recs3 {
			if r.Job == "j-fresh" {
				found = true
			}
		}
		if !found {
			t.Fatal("record appended after damage did not replay")
		}
	})
}
