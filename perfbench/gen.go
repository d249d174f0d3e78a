package main

import (
	"encoding/json"
	"sync"

	"repro/internal/service"
)

// cheapIDs are the experiments the serve loops submit: each simulates
// in well under a millisecond, so a fresh job's cost is the daemon's own
// path (journal, fsyncs, store) rather than the simulation.
var cheapIDs = []string{"table1", "fig12a", "fig11", "powershift", "fig17", "scopes"}

const (
	// hotPerExperiment seeds per cheap experiment make up the serve-hit
	// working set: 6 × 40 = 240 stored specs.
	hotPerExperiment = 40
	// storedResults is how many results the generator pre-fills the data
	// dir with; the hot set is the first len(cheapIDs)*hotPerExperiment.
	storedResults = 4000
)

// splitmix is the SplitMix64 generator: a fixed, documented sequence for a
// given seed, independent of the Go release's math/rand.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// spec is one generated job submission: the experiment it runs, the seed
// that makes its content address unique, and the JSON body a client posts.
type spec struct {
	exp  string
	seed uint64
	body []byte
}

func newSpec(exp string, seed uint64) spec {
	body, err := json.Marshal(service.Spec{Experiment: exp, Seed: seed})
	if err != nil {
		panic(err) // a Spec of two plain fields always marshals
	}
	return spec{exp: exp, seed: seed, body: body}
}

// plan is everything a run's inputs are made of, derived from the
// workload seed alone: the results pre-filled into the data dir (the hot
// set first), and the streams of serve-hit draws and serve-miss specs.
// Stored seeds are even and miss seeds odd, so no miss can ever hit a
// stored result.
type plan struct {
	stored []spec
	hot    []spec

	mu   sync.Mutex
	hits splitmix
	miss splitmix
	used map[uint64]bool
}

func newPlan(seed uint64) *plan {
	root := splitmix{s: seed}
	p := &plan{
		stored: make([]spec, 0, storedResults),
		hits:   splitmix{s: root.next()},
		miss:   splitmix{s: root.next()},
		used:   make(map[uint64]bool, storedResults),
	}
	fill := splitmix{s: root.next()}
	for i := 0; len(p.stored) < storedResults; i++ {
		s := fill.next() &^ 1
		if s == 0 || p.used[s] {
			continue
		}
		p.used[s] = true
		p.stored = append(p.stored, newSpec(cheapIDs[len(p.stored)%len(cheapIDs)], s))
	}
	p.hot = p.stored[:len(cheapIDs)*hotPerExperiment]
	return p
}

// nextHit draws the next serve-hit submission from the hot set.
func (p *plan) nextHit() spec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hot[p.hits.next()%uint64(len(p.hot))]
}

// nextMiss returns a never-seen cheap-experiment spec.
func (p *plan) nextMiss() spec {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		r := p.miss.next()
		s := r | 1
		if p.used[s] {
			continue
		}
		p.used[s] = true
		return newSpec(cheapIDs[(r>>1)%uint64(len(cheapIDs))], s)
	}
}
