package apusim

import (
	"fmt"
	"io"

	"repro/internal/trace"
)

// TraceSpec selects what a WriteTrace call renders. Any combination may
// be enabled; process IDs are assigned left to right (Fig. 14 programs
// first, then the dispatch, then telemetry counters).
type TraceSpec struct {
	// Fig14N, when positive, runs the Fig. 14 program trio at that problem
	// size and includes one process track of step spans per program.
	Fig14N int
	// Dispatch includes the Fig. 13 cooperative multi-XCD dispatch: one
	// busy span per XCD.
	Dispatch bool
	// Telemetry, when non-nil, appends every sampled series as Chrome
	// counter ('C') events, one counter track per probe.
	Telemetry *Recorder
	// TelemetryPID pins the counter events' process ID; 0 assigns the
	// next free PID after the span tracks.
	TelemetryPID int
	// Spans, when non-nil, appends the recorder's causal span trees as one
	// process of per-stage thread tracks, with flow arrows ('s'/'t'/'f')
	// binding each root to its segments.
	Spans *SpanRecorder
	// SpansPID pins the span tracks' process ID; 0 assigns the next free
	// PID after the telemetry track.
	SpansPID int
}

// TraceResult reports what WriteTrace rendered.
type TraceResult struct {
	// Fig14 and Fig13 are set when the corresponding spec field was on.
	Fig14 *Fig14Result
	Fig13 *Fig13Result
	// Events is the total trace event count (spans, instants, counters).
	Events int
}

// WriteTrace renders the selected timelines as one Chrome trace (load
// into chrome://tracing or Perfetto). It is the single exit point for
// trace export; telemetry counter tracks and span dumps compose with
// either program timeline.
func WriteTrace(w io.Writer, spec TraceSpec) (*TraceResult, error) {
	if spec.Fig14N <= 0 && !spec.Dispatch && spec.Telemetry == nil && spec.Spans == nil {
		return nil, fmt.Errorf("apusim: empty TraceSpec — nothing to trace")
	}
	tr := trace.New()
	res := &TraceResult{}
	pid := 0
	if spec.Fig14N > 0 {
		r, err := addFig14Spans(tr, spec.Fig14N, pid)
		if err != nil {
			return nil, err
		}
		res.Fig14 = r
		pid += 3
	}
	if spec.Dispatch {
		r, err := addDispatchSpans(tr, pid)
		if err != nil {
			return nil, err
		}
		res.Fig13 = r
		pid++
	}
	if spec.Telemetry != nil {
		tpid := spec.TelemetryPID
		if tpid == 0 {
			tpid = pid
		}
		tr.NameProcess(tpid, "telemetry")
		spec.Telemetry.AddCounters(tr, tpid)
		if tpid >= pid {
			pid = tpid + 1
		}
	}
	if spec.Spans != nil {
		spid := spec.SpansPID
		if spid == 0 {
			spid = pid
		}
		spec.Spans.AddToTrace(tr, spid)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	res.Events = tr.Len()
	return res, tr.WriteJSON(w)
}

// addFig14Spans runs the Fig. 14 program trio and records their step
// timelines: one process track per program (basePID, basePID+1,
// basePID+2), one span per step.
func addFig14Spans(tr *trace.Trace, n, basePID int) (*Fig14Result, error) {
	r, _, err := ExperimentFig14(n)
	if err != nil {
		return nil, err
	}
	for i, prog := range []*ProgramResult{r.CPUOnly, r.Discrete, r.APU} {
		pid := basePID + i
		tr.NameProcess(pid, fmt.Sprintf("%s (%s)", prog.Program, prog.Platform))
		for _, s := range prog.Steps {
			tr.Span(s.Name, "step", pid, 0, s.Start, s.End, map[string]string{
				"program": prog.Program,
			})
		}
	}
	return r, nil
}

// addDispatchSpans runs a multi-XCD dispatch and records per-XCD busy
// spans on process pid, visualizing the Fig. 13 cooperative flow.
func addDispatchSpans(tr *trace.Trace, pid int) (*Fig13Result, error) {
	p, err := NewMI300A()
	if err != nil {
		return nil, err
	}
	k := &KernelSpec{
		Name: "fig13", Class: Vector, Dtype: FP32,
		FlopsPerItem: 1000, BytesReadPerItem: 8,
	}
	const items = 6 * 38 * 2 * 256
	done, err := p.GPU.Dispatch(0, k, items, 256, 0)
	if err != nil {
		return nil, err
	}
	tr.NameProcess(pid, "MI300A SPX partition")
	r := &Fig13Result{XCDs: len(p.XCDs), Workgroups: items / 256, Completion: done}
	for i, x := range p.XCDs {
		st := x.Stats()
		r.PerXCD = append(r.PerXCD, st.Workgroups)
		r.SyncMessages += st.SyncMessages
		r.PacketsDecoded += st.PacketsDecoded
		tr.NameThread(pid, i, fmt.Sprintf("XCD%d", i))
		tr.Span(k.Name, "dispatch", pid, i, 0, done, map[string]string{
			"workgroups": fmt.Sprint(st.Workgroups),
		})
	}
	return r, nil
}
