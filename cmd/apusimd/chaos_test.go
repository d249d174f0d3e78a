package main

// Daemon-level chaos test: SIGKILL apusimd mid-flight, corrupt its
// on-disk cache, restart it on the same data dir, and prove that no
// acknowledged job is lost, recovered results are byte-identical, and
// quarantined entries are never served. This drives the real binary over
// HTTP — the same artifact and the same signal (9) an OOM kill or power
// cut delivers — so it exercises the full stack: journal fsync ordering,
// torn-tail truncation, store verification, and boot-time replay.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestChaosKillCorruptRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test builds and SIGKILLs the real daemon; skipped in -short")
	}
	bin := buildDaemon(t)
	dataDir := t.TempDir()

	// Phase 1: a healthy daemon completes fast jobs; keep their manifests
	// as the byte-identity baseline.
	quick := []string{
		`{"experiment": "table1"}`,
		`{"experiment": "fig7"}`,
		`{"experiment": "fig21"}`,
	}
	d1 := startDaemon(t, bin, dataDir)
	baseline := make(map[string][]byte)
	for _, spec := range quick {
		code, st := d1.submit(t, spec)
		if code != http.StatusAccepted {
			t.Fatalf("phase-1 submit %s: %d", spec, code)
		}
		if fin := d1.await(t, st.ID, 15*time.Second); fin.State != "ok" {
			t.Fatalf("phase-1 job %s finished %s", st.ID, fin.State)
		}
		_, m := d1.get(t, "/v1/jobs/"+st.ID+"/manifest")
		baseline[spec] = m
	}

	// Phase 2: occupy the single worker with the longest job, coalesce a
	// duplicate onto it, and queue fast jobs behind it — then SIGKILL
	// mid-simulation, once the long job shows as running. Every one of
	// these jobs was acknowledged with 202, so none may be lost.
	var inflight []string
	long := `{"experiment": "managed"}`
	for _, spec := range []string{long, long,
		`{"experiment": "scale"}`, `{"experiment": "fig20"}`, `{"experiment": "spanmem"}`} {
		code, st := d1.submit(t, spec)
		if code != http.StatusAccepted {
			t.Fatalf("phase-2 submit %s: %d", spec, code)
		}
		inflight = append(inflight, st.ID)
	}
	d1.awaitRunning(t, inflight[0])
	if err := d1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_, _ = d1.cmd.Process.Wait()

	// Phase 3: corrupt the store — flip a bit in one entry, truncate
	// another. Both must be quarantined at the next boot, never served.
	entries, err := filepath.Glob(filepath.Join(dataDir, "cache", "*.entry"))
	if err != nil || len(entries) < 3 {
		t.Fatalf("expected >= 3 store entries, found %d (%v)", len(entries), err)
	}
	sort.Strings(entries)
	flip, truncate := entries[0], entries[1]
	raw, err := os.ReadFile(flip)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(flip, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(truncate, 17); err != nil {
		t.Fatal(err)
	}

	// Phase 4: restart on the same data dir and assert full recovery. The
	// boot log's recovery summary agrees with the counters: the phase-1
	// jobs replay as completed, the long job and its duplicate park as
	// interrupted, the queued jobs re-queue, two entries are quarantined.
	d2 := startDaemon(t, bin, dataDir)
	var summary string
	for _, line := range strings.Split(d2.log(), "\n") {
		if rest, ok := strings.CutPrefix(line, "apusimd: recovery: "); ok {
			summary = rest
		}
	}
	if summary == "" {
		t.Fatalf("no recovery summary in daemon log:\n%s", d2.log())
	}
	logged := make(map[string]float64)
	for _, field := range strings.Fields(summary) {
		key, val, _ := strings.Cut(field, "=")
		n, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("recovery summary %q: %v", summary, err)
		}
		logged[key] = n
	}
	for key, want := range map[string]float64{
		"requeued": 3, "interrupted": 2, "from_cache": 0, "completed": 3, "failed": 0, "quarantined": 2,
	} {
		sample := `apusimd_recovered_jobs_total{outcome="` + key + `"}`
		if key == "quarantined" {
			sample = "apusimd_cache_quarantined_total"
		}
		got := d2.metric(t, sample)
		if got != want {
			t.Errorf("%s = %g, want %g", sample, got, want)
		}
		if l, ok := logged[key]; !ok || l != got {
			t.Errorf("recovery summary %q disagrees with %s = %g", summary, sample, got)
		}
	}

	// The boot-time replay is observable: every recovery decision appears
	// in the flight recorder (via /v1/debug) with the job's trace ID, and
	// as a structured "job recovered" log line on stderr.
	dbgCode, dbgBody := d2.get(t, "/v1/debug")
	if dbgCode != http.StatusOK {
		t.Fatalf("GET /v1/debug after restart: %d: %s", dbgCode, dbgBody)
	}
	var dbg struct {
		Schema   string           `json:"schema"`
		Store    map[string]int64 `json:"store"`
		Recovery map[string]int64 `json:"recovery"`
		Flight   []struct {
			Event  string `json:"event"`
			Job    string `json:"job"`
			Trace  string `json:"trace_id"`
			Detail string `json:"detail"`
		} `json:"flight_recorder"`
	}
	if err := json.Unmarshal(dbgBody, &dbg); err != nil {
		t.Fatalf("decoding /v1/debug: %v", err)
	}
	if dbg.Schema != "apusimd-debug/v1" {
		t.Errorf("debug schema %q", dbg.Schema)
	}
	recoverTrace := make(map[string]string)
	recoverOutcomes := make(map[string]int)
	for _, ev := range dbg.Flight {
		if ev.Event == "recover" {
			recoverOutcomes[ev.Detail]++
			recoverTrace[ev.Job] = ev.Trace
			if len(ev.Trace) != 16 {
				t.Errorf("recover event for %s carries malformed trace %q", ev.Job, ev.Trace)
			}
		}
	}
	if recoverOutcomes["interrupted"] != 2 || recoverOutcomes["requeued"] != 3 {
		t.Errorf("flight recorder recover events %v, want interrupted=2 requeued=3", recoverOutcomes)
	}
	// The quarantined store entries and the recovery tally are in the same
	// snapshot, so one debug scrape tells the whole restart story.
	if dbg.Store["quarantined"] != 2 {
		t.Errorf("debug store stats %v, want quarantined=2", dbg.Store)
	}
	if dbg.Recovery["interrupted"] != 2 || dbg.Recovery["requeued"] != 3 {
		t.Errorf("debug recovery stats %v, want interrupted=2 requeued=3", dbg.Recovery)
	}
	bootLog, _ := os.ReadFile(d2.logPath)
	if !strings.Contains(string(bootLog), `msg="job recovered"`) {
		t.Errorf("no structured 'job recovered' line in restart log:\n%s", bootLog)
	}

	// Zero lost jobs: every acknowledged submission from phase 2 exists
	// and runs to ok — including the interrupted long job, transparently
	// re-queued by these very status fetches.
	for _, id := range inflight {
		fin := d2.await(t, id, 30*time.Second)
		if fin.State != "ok" {
			t.Errorf("recovered job %s finished %s, want ok", id, fin.State)
		}
		// The trace ID survives the crash: the job's JSON and the flight
		// recorder's recover event correlate on the same 16-hex ID.
		if tr := recoverTrace[id]; tr != "" && fin.TraceID != tr {
			t.Errorf("job %s trace_id %q != flight-recorder trace %q", id, fin.TraceID, tr)
		}
	}

	// Byte-identity: intact entries serve the identical manifest from the
	// store; corrupted ones re-simulate — the determinism contract makes
	// even the fresh bytes identical to the pre-crash baseline.
	hitsBefore := d2.metric(t, "apusimd_cache_disk_hits_total")
	served := 0
	for _, spec := range quick {
		code, st := d2.submit(t, spec)
		switch {
		case code == http.StatusOK && st.CacheHit:
			served++
		case code != http.StatusAccepted:
			t.Fatalf("phase-4 resubmit %s: %d", spec, code)
		}
		fin := d2.await(t, st.ID, 15*time.Second)
		if fin.State != "ok" {
			t.Fatalf("phase-4 job %s finished %s", st.ID, fin.State)
		}
		_, m := d2.get(t, "/v1/jobs/"+st.ID+"/manifest")
		if !bytes.Equal(m, baseline[spec]) {
			t.Errorf("manifest for %s differs across crash+corruption:\n%s\nvs baseline\n%s", spec, m, baseline[spec])
		}
	}
	if hitsAfter := d2.metric(t, "apusimd_cache_disk_hits_total"); hitsAfter <= hitsBefore {
		t.Errorf("disk hits %g -> %g: intact entries were not served from the store", hitsBefore, hitsAfter)
	}
	if want := len(quick) - 2; served != want {
		t.Errorf("%d resubmissions were 200 cache hits, want the %d intact entries", served, want)
	}

	d2.drain(t)
}

// healthzDurability reads the durability field from /v1/healthz.
func (d *daemon) healthzDurability(t *testing.T) string {
	t.Helper()
	_, body := d.get(t, "/v1/healthz")
	var h struct {
		Durability string `json:"durability"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("decoding healthz %q: %v", body, err)
	}
	return h.Durability
}

// TestChaosDiskFaultStormKillHealedRestart is the disk-fault capstone:
// the daemon runs on a chaos filesystem whose byte budget runs out
// mid-storm (ENOSPC with torn writes), trips into degraded memory-only
// mode, heals on schedule, recovers, and is then SIGKILLed. A restart on
// the healed filesystem must lose no durably-acknowledged job, and
// manifests — served from the store or re-simulated — must be
// byte-identical to the pre-kill bytes.
func TestChaosDiskFaultStormKillHealedRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test builds and SIGKILLs the real daemon; skipped in -short")
	}
	bin := buildDaemon(t)
	dataDir := t.TempDir()

	d1 := startDaemon(t, bin, dataDir,
		"-chaos-seed", "7",
		"-chaos-enospc-bytes", "6144",
		"-chaos-heal-after", "5s",
		"-durability-probe", "50ms")
	if got := d1.healthzDurability(t); got != "ok" {
		t.Fatalf("fresh daemon durability %q, want ok", got)
	}

	type ack struct {
		id, spec string
		durable  bool
	}
	var acked []ack
	// Storm: submit until the byte budget runs out and the breaker trips
	// (visible as a 503, a non-durable 202, or degraded healthz).
	degradedSeen := false
	for i := 0; i < 60 && !degradedSeen; i++ {
		spec := fmt.Sprintf(`{"experiment": "table1", "seed": %d}`, 100+i)
		code, st := d1.submit(t, spec)
		switch code {
		case http.StatusAccepted, http.StatusOK:
			acked = append(acked, ack{id: st.ID, spec: spec, durable: !st.NonDurable})
			if st.NonDurable {
				degradedSeen = true
			}
		case http.StatusServiceUnavailable:
			degradedSeen = true
		default:
			t.Fatalf("storm submit %d: unexpected status %d", i, code)
		}
		if d1.healthzDurability(t) == "degraded" {
			degradedSeen = true
		}
	}
	if !degradedSeen {
		t.Fatal("60 submissions never exhausted the 6 KiB chaos byte budget; breaker never tripped")
	}
	// Once tripped, new work is still admitted, marked non-durable.
	lateSpec := `{"experiment": "fig7"}`
	code, late := d1.submit(t, lateSpec)
	if code != http.StatusAccepted || !late.NonDurable {
		t.Fatalf("submit after the trip: %d %+v, want 202 with non_durable", code, late)
	}
	acked = append(acked, ack{id: late.ID, spec: lateSpec})
	// Degraded is an operating mode, not an outage: every acknowledged
	// job still reaches a terminal state.
	for _, a := range acked {
		if fin := d1.await(t, a.id, 30*time.Second); fin.State != "ok" {
			t.Fatalf("storm job %s finished %s, want ok", a.id, fin.State)
		}
	}

	// The scheduled heal lands; the probe re-arms durability.
	deadline := time.Now().Add(20 * time.Second)
	for d1.healthzDurability(t) != "ok" {
		if time.Now().After(deadline) {
			t.Fatal("durability never recovered after the chaos filesystem healed")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if v := d1.metric(t, "apusimd_durability_degraded_total"); v < 1 {
		t.Errorf("degraded_total = %g, want >= 1", v)
	}
	if v := d1.metric(t, "apusimd_durability_recovered_total"); v < 1 {
		t.Errorf("recovered_total = %g, want >= 1", v)
	}
	if v := d1.metric(t, "apusimd_durability_armed"); v != 1 {
		t.Errorf("durability_armed = %g after the heal, want 1", v)
	}

	// Post-heal jobs write through to the healed store; keep their bytes
	// as the byte-identity baseline, plus one storm-era manifest.
	postHeal := make(map[string][]byte)
	for i := 0; i < 2; i++ {
		spec := fmt.Sprintf(`{"experiment": "table1", "seed": %d}`, 900+i)
		code, st := d1.submit(t, spec)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("post-heal submit: %d", code)
		}
		if fin := d1.await(t, st.ID, 30*time.Second); fin.State != "ok" {
			t.Fatalf("post-heal job finished %s", fin.State)
		}
		_, m := d1.get(t, "/v1/jobs/"+st.ID+"/manifest")
		postHeal[spec] = m
	}
	stormSpec := acked[0].spec
	_, stormManifest := d1.get(t, "/v1/jobs/"+acked[0].id+"/manifest")

	// Power cut: no drain, no checkpoint flush beyond what recovery and
	// the WAL already fsynced.
	if err := d1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_, _ = d1.cmd.Process.Wait()

	// The degraded episode is visible in the operator log.
	log1 := d1.log()
	for _, line := range []string{
		"durability degraded: entering memory-only mode",
		"durability recovered: admissions journaled again",
		"CHAOS: fault injection healed",
	} {
		if !strings.Contains(log1, line) {
			t.Errorf("no %q line in the chaos daemon's log:\n%s", line, log1)
		}
	}

	// Restart on the healed filesystem (no chaos flags): zero
	// durably-acknowledged loss.
	d2 := startDaemon(t, bin, dataDir)
	if got := d2.healthzDurability(t); got != "ok" {
		t.Fatalf("restarted daemon durability %q, want ok", got)
	}
	for _, a := range acked {
		if !a.durable {
			continue // non-durable 202s promise execution, not survival
		}
		code, body := d2.get(t, "/v1/jobs/"+a.id)
		if code != http.StatusOK {
			t.Errorf("durably-acked job %s lost across SIGKILL: %d: %s", a.id, code, body)
			continue
		}
		// Whatever state it recovered in, it converges to ok: terminal
		// records replay as ok, interrupted/queued ones re-run.
		if fin := d2.await(t, a.id, 30*time.Second); fin.State != "ok" {
			t.Errorf("recovered job %s converged to %s, want ok", a.id, fin.State)
		}
	}

	// Byte-identity, both ways: post-heal manifests come back from the
	// store; the storm-era manifest (whose store write died with the
	// disk) re-simulates to the identical bytes.
	for spec, want := range postHeal {
		code, st := d2.submit(t, spec)
		if code != http.StatusOK && code != http.StatusAccepted {
			t.Fatalf("resubmit %s: %d", spec, code)
		}
		fin := d2.await(t, st.ID, 30*time.Second)
		if fin.State != "ok" {
			t.Fatalf("resubmitted job finished %s", fin.State)
		}
		_, got := d2.get(t, "/v1/jobs/"+st.ID+"/manifest")
		if !bytes.Equal(got, want) {
			t.Errorf("post-heal manifest for %s differs across SIGKILL restart", spec)
		}
	}
	code, st := d2.submit(t, stormSpec)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("storm-spec resubmit: %d", code)
	}
	if fin := d2.await(t, st.ID, 30*time.Second); fin.State == "ok" {
		_, got := d2.get(t, "/v1/jobs/"+st.ID+"/manifest")
		if !bytes.Equal(got, stormManifest) {
			t.Errorf("storm-era manifest not byte-identical after re-simulation")
		}
	}
}
