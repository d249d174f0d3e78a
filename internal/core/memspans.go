package core

import (
	"strconv"

	"repro/internal/cache"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/spans"
)

// memSpans records memAccess's span trees on a platform built with a
// recorder. It is bound once per platform: every label and key is
// registered up front, and the fabric and HBM observers are method values
// made once, so a traced transaction copies records and attributes into
// the recorder and formats and allocates nothing else.
type memSpans struct {
	rec *spans.Recorder
	// root is the transaction being recorded; the observers record under
	// it. A platform runs one transaction at a time.
	root spans.Ref

	read, write    spans.Label
	link           []spans.Label // fabric hop children, by link ID
	hbm, ecc, mall []spans.Label // by channel
	node           []spans.Text  // source names, by fabric node ID
	reroutes       []reroute     // by hashed channel
	kSrc, kBytes   spans.Text
	kResult        spans.Text
	kQueue         spans.Text
	kLink          spans.Text
	kRerouted      spans.Text
	hit, miss      spans.Text
	// onHop and onHBM are hop and channel as method values, made once.
	onHop fabric.HopObserver
	onHBM mem.AccessObserver
}

// reroute caches the "rerouted" value for one hashed channel.
type reroute struct {
	served int // the live channel the text names, plus one; 0 = none yet
	text   spans.Text
}

// bindMemSpans registers p's memory-path labels on its recorder.
func bindMemSpans(p *Platform) *memSpans {
	rec := p.spans
	t := &memSpans{
		rec:       rec,
		read:      rec.Label(spans.KindMem, "mem.read"),
		write:     rec.Label(spans.KindMem, "mem.write"),
		kSrc:      rec.Text("src"),
		kBytes:    rec.Text("bytes"),
		kResult:   rec.Text("result"),
		kQueue:    rec.Text("queue_ns"),
		kLink:     rec.Text("link.state"),
		kRerouted: rec.Text("rerouted"),
		hit:       rec.Text("hit"),
		miss:      rec.Text("miss"),
	}
	for _, l := range p.Net.Links() {
		t.link = append(t.link, rec.Label(spans.StageFabric, l.Name))
	}
	for id := fabric.NodeID(0); p.Net.Node(id) != nil; id++ {
		t.node = append(t.node, rec.Text(p.Net.Node(id).Name))
	}
	n := len(p.HBM.Channels())
	t.hbm = make([]spans.Label, n)
	t.ecc = make([]spans.Label, n)
	t.mall = make([]spans.Label, n)
	for ch := range n {
		name := "hbm.ch" + strconv.Itoa(ch)
		t.hbm[ch] = rec.Label(spans.StageHBM, name)
		t.ecc[ch] = rec.Label(spans.StageHBMECC, name)
		t.mall[ch] = rec.Label(spans.StageCache, "mall"+strconv.Itoa(ch))
	}
	t.reroutes = make([]reroute, n)
	t.onHop, t.onHBM = t.hop, t.channel
	return t
}

// begin offers a transaction's root candidate and, when it is sampled,
// annotates it and makes it the root the observers record under.
func (t *memSpans) begin(src fabric.NodeID, bytes int64, write bool, start sim.Time) spans.Ref {
	l := t.read
	if write {
		l = t.write
	}
	root := t.rec.RootLabeled(l, start)
	if root.Valid() {
		root.AnnotateText(t.kSrc, t.node[src])
		root.AnnotateInt(t.kBytes, bytes)
		t.root = root
	}
	return root
}

// hop records one fabric link's serialization.
func (t *memSpans) hop(l *fabric.Link, txStart, txEnd sim.Time) {
	c := t.root.ChildLabeled(t.link[l.ID], txStart, txEnd)
	if l.State() != fabric.LinkUp {
		c.AnnotateText(t.kLink, t.rec.Text(l.State().String()))
	}
}

// channel records one HBM channel occupancy.
func (t *memSpans) channel(hashedCh, servedCh int, start, end sim.Time, retry bool) {
	l := t.hbm[servedCh]
	if retry {
		l = t.ecc[servedCh]
	}
	c := t.root.ChildLabeled(l, start, end)
	if servedCh != hashedCh {
		rr := &t.reroutes[hashedCh]
		if rr.served != servedCh+1 {
			rr.served = servedCh + 1
			rr.text = t.rec.Text("ch" + strconv.Itoa(hashedCh) + "->ch" + strconv.Itoa(servedCh))
		}
		c.AnnotateText(t.kRerouted, rr.text)
	}
}

// cache records Infinity Cache slice ch serving a chunk that reached it
// at arrive.
func (t *memSpans) cache(ch int, arrive sim.Time, res cache.AccessResult) {
	c := t.root.ChildLabeled(t.mall[ch], arrive, res.Done)
	result := t.miss
	if res.Hit {
		result = t.hit
	}
	c.AnnotateText(t.kResult, result)
	if wait := res.Begin - arrive; wait > 0 {
		c.AnnotateTime(t.kQueue, wait)
	}
}
