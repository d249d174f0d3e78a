package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	apusim "repro"
	"repro/internal/durable"
	"repro/internal/mem"
	"repro/internal/progmodel"
	"repro/internal/runner"
	"repro/internal/service"
)

// A traced run reports every per-layer metric. Metrics of the serving
// path come from serve loops the run drives: the workload's own loop where
// it reaches a stage, and otherwise a short companion loop on the same
// daemon (serve-hit never runs a job, and suite-timing never reaches the
// daemon). Every other layer is measured by probes: spans around direct
// calls into its public functions.

// companionSeconds is how long a companion serve loop runs.
const companionSeconds = time.Second

// serveLoop is one traced serve loop; its ops' root spans are named name.
type serveLoop struct {
	name string
	kind serveKind
	d    time.Duration
}

// layerMetrics runs the traced serve loops on s and then every probe. It
// sets the tracing overhead from the loop named "op", if there is one.
func layerMetrics(e *env, out *outcome, s *fixture, loops []serveLoop) error {
	probeDir := filepath.Join(e.dir, "probe")
	if err := copyFiles(filepath.Join(s.data, "cache"), filepath.Join(probeDir, "cache"), func(string) bool { return true }); err != nil {
		return err
	}
	if err := copyFiles(s.data, probeDir, isJournal); err != nil {
		return err
	}
	if _, err := s.restart(out); err != nil {
		return err
	}
	for _, lp := range loops {
		l, err := serveLoopMetrics(e, out, s, lp)
		if err != nil {
			return err
		}
		out.add(l)
		if lp.name == "op" {
			out.overhead(l)
		}
	}
	if err := s.stop(); err != nil {
		return err
	}
	manifests, err := hotManifests(e, probeDir)
	if err != nil {
		return err
	}
	if err := durableProbes(e, out, probeDir, manifests); err != nil {
		return err
	}
	if err := serviceProbes(e, out, manifests); err != nil {
		return err
	}
	return simProbes(e, out)
}

// serveLoopMetrics runs one traced serve loop and sets each service-layer
// metric it measures that no earlier loop of this run has set.
func serveLoopMetrics(e *env, out *outcome, s *fixture, lp serveLoop) (loopResult, error) {
	stg := &stages{}
	dbg0, err := s.c.debug()
	if err != nil {
		return loopResult{}, err
	}
	live0 := liveHeap() - e.tr.heldBytes()
	l := s.loop(lp.name, lp.kind, lp.d, e.tr, stg)
	bench := e.tr.heldBytes() + 8*int64(cap(l.lat)+cap(l.traced)+cap(l.untraced))
	live1 := liveHeap() - bench
	dbg1, err := s.c.debug()
	if err != nil {
		return l, err
	}
	for metric, name := range map[string]string{
		"service.submit_ms":   "service.submit",
		"service.watch_ms":    "service.watch",
		"service.manifest_ms": "service.manifest",
	} {
		if v, ok := e.tr.selfMedian(lp.name, name, 1e6); ok {
			out.setOnce(metric, v, "ms")
		}
	}
	if len(stg.queued) > 0 {
		out.setOnce("service.queue_wait_ms", quantile(stg.queued, 0.5)/1e6, "ms")
		out.setOnce("service.run_ms", quantile(stg.run, 0.5)/1e6, "ms")
	}
	hits := dbg1.Cache.Hits - dbg0.Cache.Hits
	misses := dbg1.Cache.Misses - dbg0.Cache.Misses
	if hits+misses > 0 {
		out.setOnce("service.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	}
	out.setOnce("service.disk_hits", float64(dbg1.Cache.DiskHits), "count")
	if l.attempted > 0 {
		out.setOnce("service.retained_kb_per_job", float64(live1-live0)/1024/float64(l.attempted), "KiB")
	}
	if syncs := dbg1.Journal["syncs"] - dbg0.Journal["syncs"]; syncs > 0 {
		appends := dbg1.Journal["appends"] - dbg0.Journal["appends"]
		out.setOnce("durable.records_per_sync", float64(appends)/float64(syncs), "records")
	}
	return l, nil
}

// probeCalls is how many timed calls a micro-probe makes per writer.
const probeCalls = 100

// durableProbes times the durability layer: opening the store and
// replaying the journal of a copy of the set-up data dir, and journal
// appends, store puts and store gets of the workload's records in a
// scratch dir on the same disk, from two writers.
func durableProbes(e *env, out *outcome, probeDir string, manifests []keyedManifest) error {
	tr := e.tr
	for i := 0; i < 3; i++ {
		root := tr.begin("probe.durable", 0)
		id := tr.begin("durable.OpenStore", root)
		st, err := durable.OpenStore(nil, probeDir)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("durable.OpenJournalDir", root)
		j, recs, _, err := durable.OpenJournalDir(nil, probeDir, durable.JournalOptions{})
		tr.end(id)
		tr.end(root)
		if err != nil {
			return err
		}
		if err := j.Close(); err != nil {
			return err
		}
		if n := st.Stats().Entries; n != storedResults {
			err = fmt.Errorf("store opened with %d entries, want %d", n, storedResults)
		} else if len(recs) < storedResults {
			err = fmt.Errorf("journal replayed %d records, want at least %d", len(recs), storedResults)
		}
		out.count(err, e.log, "store open and journal replay")
	}
	setMS(out, tr, "probe.durable", "durable.OpenStore", "durable.store_open_ms")
	setMS(out, tr, "probe.durable", "durable.OpenJournalDir", "durable.journal_replay_ms")

	scratch := filepath.Join(e.dir, "scratch")
	j, _, _, err := durable.OpenJournalDir(nil, scratch, durable.JournalOptions{})
	if err != nil {
		return err
	}
	store, err := durable.OpenStore(nil, scratch)
	if err != nil {
		return err
	}
	// Each writer journals the submit records of fresh miss specs, as the
	// daemon does on admission, and stores a hot manifest under each key.
	const writers = 2
	recs := make([][]durable.Record, writers)
	for w := range recs {
		for i := 0; i < probeCalls; i++ {
			sp := e.plan.nextMiss()
			parsed, err := service.ParseSpec(sp.body)
			if err != nil {
				return err
			}
			recs[w] = append(recs[w], durable.Record{Op: durable.OpSubmit, Job: fmt.Sprintf("p%d-%06d", w, i),
				Seq: i + 1, Tenant: service.DefaultTenant, Key: parsed.Hash(), Spec: sp.body})
		}
	}
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			root := tr.begin("probe.durable", 0)
			defer tr.end(root)
			for i, rec := range recs[w] {
				id := tr.begin("durable.Journal.AppendSync", root)
				err := j.AppendSync(rec)
				tr.end(id)
				if err == nil {
					m := manifests[i%len(manifests)].manifest
					id = tr.begin("durable.Store.Put", root)
					err = store.Put(rec.Key, durable.Entry{State: string(service.JobOK), Attempts: 1, Manifest: m})
					tr.end(id)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
			for i, rec := range recs[w] {
				id := tr.begin("durable.Store.Get", root)
				got, ok := store.Get(rec.Key)
				tr.end(id)
				if !ok || string(got.Manifest) != string(manifests[i%len(manifests)].manifest) {
					errs[w] = fmt.Errorf("store get %s: entry missing or different", rec.Key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		return err
	}
	for _, err := range errs {
		out.count(err, e.log, "durable probe")
	}
	setUS(out, tr, "probe.durable", "durable.Journal.AppendSync", "durable.journal_sync_us")
	setUS(out, tr, "probe.durable", "durable.Store.Put", "durable.store_put_us")
	setUS(out, tr, "probe.durable", "durable.Store.Get", "durable.store_get_us")
	return nil
}

// keyedManifest is a stored result: its content address and manifest
// bytes.
type keyedManifest struct {
	key      string
	manifest []byte
}

// hotManifests reads the hot set's manifests back from the store in dir,
// checking each against its digest.
func hotManifests(e *env, dir string) ([]keyedManifest, error) {
	store, err := durable.OpenStore(nil, dir)
	if err != nil {
		return nil, err
	}
	var out []keyedManifest
	for _, sp := range e.plan.hot {
		parsed, err := service.ParseSpec(sp.body)
		if err != nil {
			return nil, err
		}
		key := parsed.Hash()
		ent, ok := store.Get(key)
		if !ok {
			return nil, fmt.Errorf("hot spec %s seed %d is not in the store", sp.exp, sp.seed)
		}
		if err := e.dig.checkManifest(sp.exp, ent.Manifest); err != nil {
			return nil, err
		}
		out = append(out, keyedManifest{key: key, manifest: ent.Manifest})
	}
	return out, nil
}

// serviceProbes times the admission path's first steps on serve-hit
// draws: parsing, canonicalizing and hashing a spec body, and looking its
// key up in an LRU that holds the hot set.
func serviceProbes(e *env, out *outcome, manifests []keyedManifest) error {
	tr := e.tr
	cache := service.NewCache(64 << 20)
	for _, m := range manifests {
		cache.Put(m.key, service.Entry{State: service.JobOK, Manifest: m.manifest, Attempts: 1})
	}
	root := tr.begin("probe.service", 0)
	for i := 0; i < 20*probeCalls; i++ {
		sp := e.plan.nextHit()
		id := tr.begin("service.ParseSpec+Hash", root)
		parsed, err := service.ParseSpec(sp.body)
		var key string
		if err == nil {
			key = parsed.Hash()
		}
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("service.Cache.Get", root)
		_, hit := cache.Get(key)
		tr.end(id)
		if !hit {
			err = fmt.Errorf("cache lookup of %s seed %d missed", sp.exp, sp.seed)
		}
		out.count(err, e.log, "cache probe")
	}
	tr.end(root)
	setUS(out, tr, "probe.service", "service.ParseSpec+Hash", "service.spec_hash_us")
	setUS(out, tr, "probe.service", "service.Cache.Get", "service.cache_get_us")
	return nil
}

// platformBuilds are the platform constructors timed by the core probe.
var platformBuilds = []struct {
	name  string
	build func() (*apusim.Platform, error)
}{
	{"mi300a", apusim.NewMI300A},
	{"mi250x", apusim.NewMI250X},
	{"mi300x", apusim.NewMI300X},
	{"ehpv4", apusim.NewEHPv4},
}

// programN is the element count fig14 and managed run their programs at.
const programN = 1 << 22

// programs are the Fig. 14 and managed-memory programs, each on the
// platform those experiments build for it.
var programs = []struct {
	name  string
	build func() (*apusim.Platform, error)
	run   func(*apusim.Platform) (*progmodel.Result, error)
}{
	{"cpu_only", apusim.NewMI300A, func(p *apusim.Platform) (*progmodel.Result, error) { return progmodel.RunCPUOnly(p, programN) }},
	{"discrete", apusim.NewMI250X, func(p *apusim.Platform) (*progmodel.Result, error) { return progmodel.RunDiscrete(p, programN) }},
	{"apu", apusim.NewMI300A, func(p *apusim.Platform) (*progmodel.Result, error) { return progmodel.RunAPU(p, programN) }},
	{"managed", apusim.NewMI250X, func(p *apusim.Platform) (*progmodel.Result, error) {
		r, _, err := progmodel.RunManaged(p, programN)
		return r, err
	}},
}

// simProbes times the simulator's layers: each experiment on its own
// RunSuite call, each platform constructor, each Fig. 14 / managed program,
// and functional memory's typed accessors.
func simProbes(e *env, out *outcome) error {
	tr := e.tr
	reg := apusim.Experiments()
	root := tr.begin("probe.runner", 0)
	for _, id := range reg.IDs() {
		a0 := allocated()
		sid := tr.begin("runner."+id, root)
		res, err := reg.RunSuite(runner.Options{Parallel: 1, IDs: []string{id}})
		tr.end(sid)
		alloc := allocated() - a0
		if err == nil {
			err = e.dig.checkResult(res.Results[0])
		}
		out.count(err, e.log, "runner probe")
		setMS(out, tr, "probe.runner", "runner."+id, "runner."+id+".ms")
		out.set("runner."+id+".alloc_kb", float64(alloc)/1024, "KiB")
	}
	tr.end(root)

	root = tr.begin("probe.core", 0)
	for _, b := range platformBuilds {
		var allocs []float64
		for i := 0; i < 5; i++ {
			a0 := allocated()
			id := tr.begin("core.build_"+b.name, root)
			_, err := b.build()
			tr.end(id)
			allocs = append(allocs, float64(allocated()-a0))
			if err != nil {
				return err
			}
		}
		setMS(out, tr, "probe.core", "core.build_"+b.name, "core.build_"+b.name+"_ms")
		out.set("core.build_"+b.name+"_alloc_kb", median(allocs)/1024, "KiB")
	}
	tr.end(root)

	var touched int64
	for _, pg := range programs {
		p, err := pg.build()
		if err != nil {
			return err
		}
		root := tr.begin("probe.progmodel", 0)
		id := tr.begin("progmodel."+pg.name, root)
		r, err := pg.run(p)
		tr.end(id)
		tr.end(root)
		if err == nil && !r.Verified {
			err = fmt.Errorf("program %s did not verify", pg.name)
		}
		out.count(err, e.log, "progmodel probe")
		touched += p.DeviceMem.TouchedBytes()
		if p.HostMem != p.DeviceMem {
			touched += p.HostMem.TouchedBytes()
		}
		setMS(out, tr, "probe.progmodel", "progmodel."+pg.name, "progmodel."+pg.name+".ms")
	}
	out.set("mem.touched_mb", float64(touched)/(1<<20), "MiB")

	nsPerAccess, err := memProbe(tr)
	out.count(err, e.log, "mem probe")
	out.set("mem.ns_per_access", nsPerAccess, "ns")
	return nil
}

// memProbe drives ReadFloat64/WriteFloat64 over two 2^22-element arrays in
// the programs' order (init x, y = 3x+7, sum y) and returns the mean time
// per access.
func memProbe(tr *tracer) (float64, error) {
	const n = programN
	sp := mem.NewSpace("perfbench", 1<<30)
	x, err := sp.Alloc(n*8, 4096)
	if err != nil {
		return 0, err
	}
	y, err := sp.Alloc(n*8, 4096)
	if err != nil {
		return 0, err
	}
	root := tr.begin("probe.mem", 0)
	id := tr.begin("mem.Space", root)
	for i := int64(0); i < n; i++ {
		sp.WriteFloat64(x+8*i, float64(i))
	}
	for i := int64(0); i < n; i++ {
		sp.WriteFloat64(y+8*i, 3*sp.ReadFloat64(x+8*i)+7)
	}
	var total float64
	for i := int64(0); i < n; i++ {
		total += sp.ReadFloat64(y + 8*i)
	}
	tr.end(id)
	tr.end(root)
	if want := 3*float64(n)*float64(n-1)/2 + 7*float64(n); total != want {
		return 0, fmt.Errorf("mem probe sum %g, want %g", total, want)
	}
	ns, _ := tr.selfMedian("probe.mem", "mem.Space", 1)
	return ns / (4 * n), nil
}

func setMS(out *outcome, tr *tracer, root, span, metric string) {
	if v, ok := tr.selfMedian(root, span, 1e6); ok {
		out.set(metric, v, "ms")
	}
}

func setUS(out *outcome, tr *tracer, root, span, metric string) {
	if v, ok := tr.selfMedian(root, span, 1e3); ok {
		out.set(metric, v, "us")
	}
}
