package durable

// JobRecovery is one job's reconstructed lifecycle after a journal
// replay: what was known about it when the process died, and whether it
// had already finished.
type JobRecovery struct {
	// Record is the job's submit record. Its State and Attempts come from
	// the job's done record: State is "" for a job that was still pending
	// at the crash.
	Record
	// Started reports that a worker had picked the job up (a start
	// record exists). A job that died started is treated more carefully
	// than one that died queued — it may be the spec that killed the
	// process.
	Started bool
}

// BuildRecovery folds replayed records into per-job recovery entries, in
// submission order. It is deliberately forgiving — the journal may have
// lost or skipped records — and admission-safe: duplicate submit records
// for one job ID collapse to the first (a job can never be admitted
// twice), start/done records for unknown jobs are dropped, and a done
// record is final (later records cannot resurrect a finished job).
func BuildRecovery(recs []Record) []JobRecovery {
	byJob := make(map[string]*JobRecovery)
	var order []*JobRecovery
	for _, rec := range recs {
		switch rec.Op {
		case OpSubmit:
			if _, dup := byJob[rec.Job]; dup {
				continue
			}
			rec.State, rec.Attempts = "", 0 // only a done record sets them
			jr := &JobRecovery{Record: rec}
			byJob[rec.Job] = jr
			order = append(order, jr)
		case OpStart:
			if jr := byJob[rec.Job]; jr != nil && jr.State == "" {
				jr.Started = true
			}
		case OpDone:
			if jr := byJob[rec.Job]; jr != nil && jr.State == "" {
				jr.State = rec.State
				jr.Attempts = rec.Attempts
			}
		}
	}
	out := make([]JobRecovery, len(order))
	for i, jr := range order {
		out[i] = *jr
	}
	return out
}
