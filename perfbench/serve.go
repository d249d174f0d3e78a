package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	apusim "repro"
	"repro/internal/service"
)

// serveKind selects what a serve loop's ops do.
type serveKind int

const (
	hitLoop serveKind = iota
	missLoop
)

// serveClients is the closed-loop client count of every serve loop.
const serveClients = 2

// daemonConfig is the Config cmd/apusimd builds from its default flags,
// plus a data dir. Log records are formatted at the default level but
// discarded, so the benchmark's own output stays readable.
func daemonConfig(dataDir string) service.Config {
	return service.Config{
		Registry:        apusim.Experiments(),
		FaultPlanRun:    apusim.ExperimentFaultPlan,
		QueueDepth:      64,
		CacheBytes:      64 << 20,
		JobTimeout:      2 * time.Minute,
		DataDir:         dataDir,
		DurabilityProbe: 2 * time.Second,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	}
}

// daemon is an apusimd server on a loopback listener.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	served chan error
}

func startDaemon(dataDir string) (*daemon, error) {
	srv, err := service.New(daemonConfig(dataDir))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon as SIGTERM does and waits for the listener to
// close.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := d.srv.Drain(ctx)
	shutErr := d.hs.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		shutErr = errors.Join(shutErr, err)
	}
	return errors.Join(drainErr, shutErr)
}

// client is an HTTP client of the daemon's API with keep-alive
// connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// do sends a request and returns the status code and the whole body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// submit POSTs a spec and decodes the job status it returns.
func (c *client) submit(body []byte) (int, service.JobStatus, error) {
	var st service.JobStatus
	code, data, err := c.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return 0, st, err
	}
	if code == http.StatusOK || code == http.StatusAccepted {
		if err := json.Unmarshal(data, &st); err != nil {
			return code, st, fmt.Errorf("decoding job status: %w", err)
		}
	}
	return code, st, nil
}

// watch follows a job's ?watch=1 stream to its terminal record.
func (c *client) watch(id string) (service.JobStatus, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "?watch=1")
	if err != nil {
		return service.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.JobStatus{}, fmt.Errorf("watch %s: status %d", id, resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var st service.JobStatus
		if err := dec.Decode(&st); err != nil {
			return st, fmt.Errorf("watch %s: %w", id, err)
		}
		if st.State.Terminal() {
			_, err := io.Copy(io.Discard, resp.Body)
			return st, err
		}
	}
}

// manifest GETs a job's manifest.
func (c *client) manifest(id string) ([]byte, error) {
	code, data, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/manifest", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("manifest %s: status %d", id, code)
	}
	return data, err
}

// debug fetches the daemon's /v1/debug snapshot.
func (c *client) debug() (service.DebugSnapshot, error) {
	var snap service.DebugSnapshot
	code, data, err := c.do(http.MethodGet, "/v1/debug", nil)
	if err != nil {
		return snap, err
	}
	if code != http.StatusOK {
		return snap, fmt.Errorf("debug: status %d", code)
	}
	return snap, json.Unmarshal(data, &snap)
}

// stages collects the server-side stage durations of the jobs miss ops
// watched: queued_ns and run_ns from the terminal job record.
type stages struct {
	mu          sync.Mutex
	queued, run []float64
}

func (s *stages) add(st service.JobStatus) {
	s.mu.Lock()
	s.queued = append(s.queued, float64(st.QueuedNS))
	s.run = append(s.run, float64(st.RunNS))
	s.mu.Unlock()
}

// fixture is a serve workload's daemon, its client, and the data dir the
// generator filled.
type fixture struct {
	e       *env
	data    string // the daemon's data dir
	journal string // the journal segments as the fill left them
	d       *daemon
	c       *client
}

func isJournal(name string) bool { return strings.HasPrefix(name, "journal") }

// newFixture fills a data dir with the plan's stored results through a
// real daemon, keeps a copy of the journal it wrote, and flushes
// everything to disk so set-up timing starts from a quiet disk.
func newFixture(e *env) (*fixture, error) {
	s := &fixture{e: e, data: filepath.Join(e.dir, "data"), journal: filepath.Join(e.dir, "journal0")}
	t0 := time.Now()
	if err := fill(s.data, e.plan.stored); err != nil {
		return nil, fmt.Errorf("filling the data dir: %w", err)
	}
	if err := copyFiles(s.data, s.journal, isJournal); err != nil {
		return nil, err
	}
	t1 := time.Now()
	syscall.Sync()
	fmt.Fprintf(e.log, "perfbench: filled the data dir with %d results in %.1fs, sync took %.1fs\n",
		len(e.plan.stored), t1.Sub(t0).Seconds(), time.Since(t1).Seconds())
	return s, nil
}

// fill submits every spec to a fresh daemon over the data dir and waits
// for each job to complete, then drains the daemon.
func fill(dataDir string, specs []spec) error {
	d, err := startDaemon(dataDir)
	if err != nil {
		return err
	}
	c := newClient(d.base)
	defer c.close()
	const fillers = 4 // enough concurrent submits for group commit to batch
	work := make(chan spec)
	errs := make(chan error, fillers)
	var wg sync.WaitGroup
	for i := 0; i < fillers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range work {
				if _, err := runJob(c, sp, nil, 0); err != nil {
					errs <- err
					for range work {
					}
					return
				}
			}
		}()
	}
	for _, sp := range specs {
		work <- sp
	}
	close(work)
	wg.Wait()
	close(errs)
	return errors.Join(<-errs, d.stop())
}

// restart boots a daemon on the filled data dir, as an operator restart
// does, and returns how long it took until the daemon answered healthz
// and served the whole hot set once, moving it from disk into the LRU.
// The journal is first put back as the fill left it, so every restart
// replays the same records.
func (s *fixture) restart(out *outcome) (float64, error) {
	if s.d != nil {
		if err := s.stop(); err != nil {
			return 0, err
		}
	}
	names, err := os.ReadDir(s.data)
	if err != nil {
		return 0, err
	}
	for _, n := range names {
		if isJournal(n.Name()) {
			if err := os.Remove(filepath.Join(s.data, n.Name())); err != nil {
				return 0, err
			}
		}
	}
	if err := copyFiles(s.journal, s.data, isJournal); err != nil {
		return 0, err
	}
	syscall.Sync()

	t0 := time.Now()
	d, err := startDaemon(s.data)
	if err != nil {
		return 0, err
	}
	s.d, s.c = d, newClient(d.base)
	code, _, err := s.c.do(http.MethodGet, "/v1/healthz", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("healthz: status %d", code)
	}
	if err != nil {
		return 0, err
	}
	for _, sp := range s.e.plan.hot {
		code, st, err := s.c.submit(sp.body)
		if err == nil && (code != http.StatusOK || !st.CacheHit) {
			err = fmt.Errorf("hot spec %s: status %d, cache_hit %v", sp.exp, code, st.CacheHit)
		}
		out.count(err, s.e.log, "hot-set touch")
	}
	return time.Since(t0).Seconds(), nil
}

func (s *fixture) stop() error {
	if s.d == nil {
		return nil
	}
	s.c.close()
	err := s.d.stop()
	s.d, s.c = nil, nil
	return err
}

// hitOp POSTs a stored spec, requires a 200 cache hit, then GETs the
// manifest and checks it.
func hitOp(c *client, sp spec, dig *digests, tr *tracer, root int) error {
	id := tr.begin("service.submit", root)
	code, st, err := c.submit(sp.body)
	tr.end(id)
	if err != nil {
		return err
	}
	if code != http.StatusOK || !st.CacheHit || st.State != service.JobOK {
		return fmt.Errorf("%s seed %d: status %d, state %s, cache_hit %v; want 200 ok cache hit",
			sp.exp, sp.seed, code, st.State, st.CacheHit)
	}
	id = tr.begin("service.manifest", root)
	m, err := c.manifest(st.ID)
	tr.end(id)
	if err != nil {
		return err
	}
	return dig.checkManifest(sp.exp, m)
}

// runJob POSTs a never-seen spec, requires 202, and follows the watch
// stream until the job ends, which must be ok. It returns the terminal
// job record.
func runJob(c *client, sp spec, tr *tracer, root int) (service.JobStatus, error) {
	id := tr.begin("service.submit", root)
	code, st, err := c.submit(sp.body)
	tr.end(id)
	if err != nil {
		return st, err
	}
	if code != http.StatusAccepted || st.CacheHit {
		return st, fmt.Errorf("%s seed %d: status %d, cache_hit %v; want 202 fresh job", sp.exp, sp.seed, code, st.CacheHit)
	}
	id = tr.begin("service.watch", root)
	st, err = c.watch(st.ID)
	tr.end(id)
	if err == nil && st.State != service.JobOK {
		err = fmt.Errorf("%s seed %d: job ended %s: %s", sp.exp, sp.seed, st.State, st.Error)
	}
	return st, err
}

// missOp runs a never-seen spec to completion, then GETs the manifest and
// checks it.
func missOp(c *client, sp spec, dig *digests, tr *tracer, root int, stg *stages) error {
	st, err := runJob(c, sp, tr, root)
	if err != nil {
		return err
	}
	if stg != nil {
		stg.add(st)
	}
	id := tr.begin("service.manifest", root)
	m, err := c.manifest(st.ID)
	tr.end(id)
	if err != nil {
		return err
	}
	return dig.checkManifest(sp.exp, m)
}

// loop runs one serve loop of the given kind on the fixture's daemon.
func (s *fixture) loop(name string, kind serveKind, d time.Duration, tr *tracer, stg *stages) loopResult {
	p, dig := s.e.plan, s.e.dig
	return closedLoop(name, serveClients, d, tr, s.e.log, func(tr *tracer, root int) error {
		if kind == hitLoop {
			return hitOp(s.c, p.nextHit(), dig, tr, root)
		}
		return missOp(s.c, p.nextMiss(), dig, tr, root, stg)
	})
}

// runServeHit drives the serve-hit workload. Set-up is a daemon restart on
// the filled data dir plus the first touch of the hot set. Its traced run
// adds a companion serve-miss loop, since a cache hit never runs a job.
func runServeHit(e *env) (*outcome, error) {
	out := newOutcome()
	s, err := newFixture(e)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	if e.tr != nil {
		return out, layerMetrics(e, out, s, []serveLoop{
			{"op", hitLoop, e.seconds},
			{"companion-miss", missLoop, companionSeconds},
		})
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		dt, err := s.restart(out)
		if err != nil {
			return nil, err
		}
		setups = append(setups, dt)
	}
	l := s.loop("op", hitLoop, e.seconds, nil, nil)
	out.endToEnd(setups, l)
	return out, s.stop()
}

// copyFiles copies the regular files of src whose names keep accepts
// into dst, creating dst.
func copyFiles(src, dst string, keep func(string) bool) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() || !keep(ent.Name()) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
