package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// This file keeps the label renderer appendLabels replaced, as the test
// reference: a sorted copy of the labels, one fmt.Sprintf per pair, a
// strings.Builder sanitizer and a strings.Replacer built per call. It
// shares no code with appendLabels, so a difference in sorting,
// sanitizing, escaping or framing shows as a different key. Its sort is
// stable, as appendLabels' is: duplicate keys render in call order.

// refRenderLabels renders labels as an exposition-format suffix.
func refRenderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	parts := make([]string, len(sorted))
	for i, l := range sorted {
		esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
		parts[i] = fmt.Sprintf("%s=\"%s\"", refSanitize(l.Key), esc.Replace(l.Value))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// refSanitize makes a string a legal Prometheus metric name: every
// character outside [a-zA-Z0-9_:] becomes '_', and a leading digit gets a
// '_' prefix.
func refSanitize(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// fuzzLabels decodes a fuzz input into 0–5 labels. The first byte picks
// the count; each key and value is a length byte (low six bits) followed
// by that many bytes, fewer where the input runs out. A key length byte
// with its top bit set reuses the previous label's key instead, so
// duplicate keys are as easy to reach as distinct ones.
func fuzzLabels(in []byte) []Label {
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return b
	}
	str := func(n byte) string {
		k := min(int(n&0x3f), len(in))
		s := string(in[:k])
		in = in[k:]
		return s
	}
	var labels []Label
	for n := int(next() % 6); n > 0; n-- {
		var l Label
		if kb := next(); kb&0x80 != 0 && len(labels) > 0 {
			l.Key = labels[len(labels)-1].Key
		} else {
			l.Key = str(kb)
		}
		l.Value = str(next())
		labels = append(labels, l)
	}
	return labels
}

// permutations calls fn with every ordering of labels.
func permutations(labels []Label, fn func([]Label)) {
	p := append([]Label(nil), labels...)
	var walk func(k int)
	walk = func(k int) {
		if k == len(p) {
			fn(append([]Label(nil), p...))
			return
		}
		for i := k; i < len(p); i++ {
			p[k], p[i] = p[i], p[k]
			walk(k + 1)
			p[k], p[i] = p[i], p[k]
		}
	}
	walk(0)
}

// FuzzLabelKeyDifferential feeds arbitrary label sets (empty keys, leading
// digits, quotes, backslashes, newlines, non-ASCII bytes, duplicate keys)
// to the label renderer and the reference. The rendered key must match the
// reference byte for byte, whatever dst it is appended to. Set.Histogram,
// called with every ordering of the labels, must return one variable per
// distinct reference key, stored under that key.
func FuzzLabelKeyDifferential(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 10, 'e', 'x', 'p', 'e', 'r', 'i', 'm', 'e', 'n', 't', 5, 'f', 'i', 'g', '1', '4'})
	f.Add([]byte{2, 1, 'b', 1, '2', 1, 'a', 1, '1'})
	f.Add([]byte{3, 2, '9', 'k', 3, 'a', '"', 'b', 2, 'x', '-', 3, '\\', '\n', '"', 0, 0})
	f.Add([]byte{3, 1, 'k', 1, '1', 0x80, 1, '2', 1, 'a', 2, 0xc3, 0xa9})
	f.Add([]byte{5, 1, 'a', 0, 0x80, 1, 'x', 0x80, 1, 'y', 3, 'a', '-', 'b', 0, 3, 'a', '_', 'b', 1, 'z'})
	f.Fuzz(func(t *testing.T, in []byte) {
		labels := fuzzLabels(in)
		want := refRenderLabels(labels)
		if got := string(appendLabels(nil, labels)); got != want {
			t.Fatalf("appendLabels(%q) = %q, reference %q", labels, got, want)
		}
		if got := string(appendLabels([]byte("x"), labels)); got != "x"+want {
			t.Fatalf("appendLabels onto %q = %q, want %q", "x", got, "x"+want)
		}

		s := NewSet()
		byKey := make(map[string]*Histogram)
		permutations(labels, func(p []Label) {
			key := refRenderLabels(p)
			h := s.Histogram("lat_seconds", "help", []float64{1, 2}, p...)
			if h.key != key {
				t.Fatalf("Histogram(%q) stored under %q, reference key %q", p, h.key, key)
			}
			if old, ok := byKey[key]; ok && old != h {
				t.Fatalf("Histogram(%q) returned a new variable for existing key %q", p, key)
			}
			byKey[key] = h
		})
		distinct := make(map[*Histogram]bool)
		for _, h := range byKey {
			distinct[h] = true
		}
		if len(distinct) != len(byKey) {
			t.Fatalf("%d variables for %d distinct keys of %q", len(distinct), len(byKey), labels)
		}
	})
}
