// Package service is the simulation-as-a-service layer: a long-running
// front door over the experiment runner. It exposes an HTTP/JSON API —
// submit a run spec, get a job ID, stream status transitions, fetch the
// run manifest — backed by a bounded job queue, a worker pool generalized
// from internal/runner (per-job engines, panic isolation, timeouts,
// retries), admission control with per-tenant fairness, and a
// content-addressed result cache.
//
// The cache is what turns the repository's determinism contract into
// throughput: a run is a pure function of its normalized (spec, seed,
// fault plan), so the SHA-256 of the canonical spec keys a reusable
// manifest. Sweep-style workloads that submit thousands of overlapping
// design points hit cache instead of re-simulating; only mutated configs
// pay for an engine.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ras"
)

// SpecSchema identifies the job-spec JSON layout accepted by POST
// /v1/jobs; bump on incompatible changes.
const SpecSchema = "apusim-job-spec/v1"

// Spec is one job's run specification: what to simulate and which
// observability options to arm. Exactly one of Experiment or FaultPlan
// selects the work — a registered experiment by ID, or an ad-hoc RAS
// fault plan probed against a full platform build.
type Spec struct {
	// Experiment is a registered experiment ID (GET /v1/experiments
	// enumerates them).
	Experiment string `json:"experiment,omitempty"`
	// FaultPlan is an ad-hoc fault schedule, run against a freshly built
	// platform with end-to-end health probes (the same path as
	// cmd/repro -faults).
	FaultPlan *ras.Plan `json:"fault_plan,omitempty"`
	// Platform names the platform spec a fault-plan job builds; "" means
	// mi300a. Only valid alongside FaultPlan.
	Platform string `json:"platform,omitempty"`
	// Seed overrides the fault plan's seed when nonzero. For experiment
	// jobs it is inert (experiments are self-seeded) but still part of
	// the cache key.
	Seed uint64 `json:"seed,omitempty"`
	// Telemetry arms sampled component timelines; SampleNS is the
	// cadence in simulated nanoseconds (0 = package default).
	Telemetry bool  `json:"telemetry,omitempty"`
	SampleNS  int64 `json:"sample_ns,omitempty"`
	// Spans arms causal span tracing; SpanSample is the head-sampling
	// rate in (0, 1] (0 or out-of-range traces every root).
	Spans      bool    `json:"spans,omitempty"`
	SpanSample float64 `json:"span_sample,omitempty"`
	// Audit arms runtime invariant auditing; Strict fails the run on any
	// violation instead of degrading it.
	Audit  bool `json:"audit,omitempty"`
	Strict bool `json:"strict,omitempty"`
	// Retries is how many extra attempts a failing run gets, each at once
	// on a fresh engine, all within the job's one deadline.
	Retries int `json:"retries,omitempty"`
	// TimeoutMS is the job's wall-clock deadline in milliseconds, retries
	// included; 0 means the server default. A spec deadline can only
	// tighten the server's — the effective deadline is min(timeout_ms,
	// server default). Jobs that exceed it reach the terminal "timeout"
	// state. Part of the content hash: the deadline can change the
	// outcome, so it is spec semantics, not an inert preference.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache in both directions: the job
	// neither reads a stored manifest nor coalesces onto an in-flight
	// duplicate, and its result is not stored. It is excluded from the
	// content hash — a validation re-run must prove it reproduces the
	// cached bytes, which requires the same key.
	NoCache bool `json:"no_cache,omitempty"`
}

// maxRetries bounds the per-job retry budget a client may request, so a
// single submission cannot pin a worker indefinitely.
const maxRetries = 10

// knownPlatforms are the platform names fault-plan jobs may build.
var knownPlatforms = map[string]bool{"mi300a": true}

// ParseSpec decodes a JSON job spec and validates it. Unknown fields are
// rejected so a typo'd option fails loudly instead of silently running an
// un-asked-for configuration, and trailing data after the spec object is
// rejected (mirroring ras.ParsePlan).
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("service: parsing job spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("service: parsing job spec: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec for structural problems. It does not check
// that Experiment names a registered experiment — that is the server's
// call, since the registry is its dependency.
func (s *Spec) Validate() error {
	switch {
	case s.Experiment == "" && s.FaultPlan == nil:
		return fmt.Errorf("service: spec selects no work: set experiment or fault_plan")
	case s.Experiment != "" && s.FaultPlan != nil:
		return fmt.Errorf("service: spec selects both experiment %q and a fault plan; pick one", s.Experiment)
	}
	if s.Platform != "" {
		if s.FaultPlan == nil {
			return fmt.Errorf("service: platform %q without a fault plan (experiments pick their own platforms)", s.Platform)
		}
		if !knownPlatforms[s.Platform] {
			return fmt.Errorf("service: unknown platform %q", s.Platform)
		}
	}
	if s.FaultPlan != nil {
		if err := s.FaultPlan.Validate(); err != nil {
			return err
		}
	}
	if s.SampleNS < 0 {
		return fmt.Errorf("service: negative sample_ns %d", s.SampleNS)
	}
	if math.IsNaN(s.SpanSample) || math.IsInf(s.SpanSample, 0) || s.SpanSample < 0 {
		return fmt.Errorf("service: span_sample %g is not a rate", s.SpanSample)
	}
	if s.Retries < 0 || s.Retries > maxRetries {
		return fmt.Errorf("service: retries %d outside [0, %d]", s.Retries, maxRetries)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("service: negative timeout_ms %d", s.TimeoutMS)
	}
	return nil
}

// normalized returns the canonical form of the spec: the representation
// every semantically identical submission shares, so equal work hashes to
// equal cache keys regardless of how the client spelled it.
//
//   - NoCache is dropped: it controls cache participation, not what runs.
//   - Inert options are zeroed (a sampling cadence without telemetry, a
//     span rate without spans).
//   - A span rate outside (0, 1] becomes exactly 1 — the runner treats
//     every such value as "trace everything".
//   - A nonzero Seed folds into the fault plan's seed, and the plan's
//     faults are stably sorted by firing time: the injector fires faults
//     in AtNS order (ties keep plan order), so the sorted plan is
//     behaviorally identical to any permutation of it.
//   - An empty Platform becomes the default for fault-plan jobs.
func (s *Spec) normalized() *Spec {
	n := *s
	n.NoCache = false
	if !n.Telemetry {
		n.SampleNS = 0
	}
	if !n.Spans {
		n.SpanSample = 0
	} else if n.SpanSample <= 0 || n.SpanSample > 1 {
		n.SpanSample = 1
	}
	if n.FaultPlan == nil {
		n.Platform = ""
		return &n
	}
	if n.Platform == "" {
		n.Platform = "mi300a"
	}
	plan := ras.Plan{Seed: n.FaultPlan.Seed, Faults: append([]ras.Fault(nil), n.FaultPlan.Faults...)}
	if n.Seed != 0 {
		plan.Seed = n.Seed
		n.Seed = 0
	}
	sort.SliceStable(plan.Faults, func(i, j int) bool { return plan.Faults[i].AtNS < plan.Faults[j].AtNS })
	n.FaultPlan = &plan
	return &n
}

// EffectivePlan returns the fault plan a worker should arm: the
// normalized plan, with the spec-level seed already folded in. Nil for
// experiment jobs.
func (s *Spec) EffectivePlan() *ras.Plan { return s.normalized().FaultPlan }

// Canonical renders the normalized spec as canonical JSON. Go's encoder
// writes struct fields in declaration order with no insignificant
// whitespace, so the bytes are a pure function of the normalized values —
// field order in the client's JSON cannot matter, because it never
// survives the decode.
func (s *Spec) Canonical() []byte {
	b, err := json.Marshal(s.normalized())
	if err != nil {
		// A Spec holds only marshalable fields; failure is a programming
		// bug, not an input condition.
		panic(fmt.Sprintf("service: canonicalizing spec: %v", err))
	}
	return b
}

// Hash returns the spec's content address: "sha256:" + the hex SHA-256
// of the canonical form. Equal hashes mean byte-identical manifests, by
// the determinism contract the audit/chaos suites pin.
func (s *Spec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return "sha256:" + hex.EncodeToString(sum[:])
}
