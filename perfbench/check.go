package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	apusim "repro"
	"repro/internal/runner"
)

// digestsJSON pins what a correct run produces: the sha256 of every
// experiment's output block (as cmd/repro prints it, header and status
// line included) and of the run manifest apusimd serves for each cheap
// experiment. Experiment jobs are self-seeded, so a manifest does not
// depend on the spec's seed. Regenerate with --write-digests.
//
//go:embed digests.json
var digestsJSON []byte

type digests struct {
	Outputs   map[string]string `json:"outputs"`
	Manifests map[string]string `json:"manifests"`
}

func loadDigests() (*digests, error) {
	var d digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("parsing digests.json: %w", err)
	}
	return &d, nil
}

func sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// outputBlock renders a result exactly as cmd/repro prints it.
func outputBlock(r runner.Result) []byte {
	var b bytes.Buffer
	_ = runner.WriteResult(&b, r) // a bytes.Buffer never fails
	return b.Bytes()
}

// checkResult fails a suite result whose output differs from the pinned one.
func (d *digests) checkResult(r runner.Result) error {
	want, ok := d.Outputs[r.ID]
	if !ok {
		return fmt.Errorf("%s: no pinned output digest", r.ID)
	}
	if got := sum(outputBlock(r)); got != want {
		return fmt.Errorf("%s: output digest %s, want %s (status %s)", r.ID, got[:12], want[:12], r.Status)
	}
	return nil
}

// computeDigests runs every experiment once, submits each cheap
// experiment under two seeds to a memory-only daemon, and writes the
// digests of the outputs and manifests to path. It fails if a manifest
// depends on the seed, since the serve loops' checks assume it does
// not.
func computeDigests(path string) error {
	res, err := apusim.Experiments().RunSuite(runner.Options{Parallel: 1})
	if err != nil {
		return err
	}
	d := digests{Outputs: map[string]string{}, Manifests: map[string]string{}}
	for _, r := range res.Results {
		if r.Failed() {
			return fmt.Errorf("%s failed: %v", r.ID, r.Err)
		}
		d.Outputs[r.ID] = sum(outputBlock(r))
	}
	dm, err := startDaemon("")
	if err != nil {
		return err
	}
	c := newClient(dm.base)
	defer c.close()
	for _, exp := range cheapIDs {
		var got []string
		for _, seed := range []uint64{2, 4} {
			st, err := runJob(c, newSpec(exp, seed), nil, 0)
			var m []byte
			if err == nil {
				m, err = c.manifest(st.ID)
			}
			if err != nil {
				return errors.Join(err, dm.stop())
			}
			got = append(got, sum(m))
		}
		if got[0] != got[1] {
			return errors.Join(fmt.Errorf("%s: manifest depends on the spec seed", exp), dm.stop())
		}
		d.Manifests[exp] = got[0]
	}
	if err := dm.stop(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkManifest fails a served manifest that differs from the pinned one.
func (d *digests) checkManifest(exp string, manifest []byte) error {
	want, ok := d.Manifests[exp]
	if !ok {
		return fmt.Errorf("%s: no pinned manifest digest", exp)
	}
	if got := sum(manifest); got != want {
		return fmt.Errorf("%s: manifest digest %s, want %s", exp, got[:12], want[:12])
	}
	return nil
}
