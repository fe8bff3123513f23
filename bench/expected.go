package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// expected.json pins the sha256 of every campaign's rendered text table
// (report.Campaigns, exactly what letgo-inject prints) by campaign key.
// The key carries the seed, so one flat map holds every pinned seed:
// 2017, the default, and 7, held out while the benchmark was written.
//
//go:embed expected.json
var expectedJSON []byte

const (
	pinOK         = "ok"
	pinUnverified = "unverified"
	pinMismatch   = "MISMATCH"
)

func loadPins() (map[string]string, error) {
	pins := map[string]string{}
	if err := json.Unmarshal(expectedJSON, &pins); err != nil {
		return nil, fmt.Errorf("bench/expected.json: %w", err)
	}
	return pins, nil
}

// verdict is the correctness outcome of one pass.
type verdict struct {
	attempted, failed int
	digests           map[string]string
}

// verify checks a pass: every planned injection classified, none
// quarantined, no pin-independent violation, and every rendered table
// equal to its pin. All injections of a campaign whose table mismatches
// count as failed. A campaign without a pin prints `unverified` and its
// digest, so that two commits can still be compared by eye.
func verify(r *passResult) verdict {
	pins, err := loadPins()
	if err != nil {
		fmt.Println("FAIL\t" + err.Error())
		return verdict{attempted: r.planned, failed: r.planned}
	}
	v := verdict{attempted: r.planned, digests: r.digests}
	v.failed += r.planned - r.classified + r.quarantined
	for _, msg := range r.violations {
		fmt.Println("FAIL\t" + msg)
	}
	if len(r.violations) > 0 {
		v.failed = r.planned
	}
	keys := make([]string, 0, len(r.digests))
	for k := range r.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		status := pinUnverified
		if want, ok := pins[k]; ok {
			status = pinOK
			if want != r.digests[k] {
				status = pinMismatch
				v.failed += r.sizes[k]
			}
		}
		fmt.Printf("digest\t%s\t%s\t%s\n", k, r.digests[k], status)
	}
	if v.failed > v.attempted {
		v.failed = v.attempted
	}
	return v
}

// updateExpected regenerates the pins of every workload for the given
// seeds, keeping the pins of other seeds. It refuses to pin a run that is
// incorrect by the pin-independent checks, or a seed on which shard-merge
// and fleet-compare render different tables.
func updateExpected(seeds []uint64) error {
	if err := requireCPUs(); err != nil {
		return err
	}
	cfg := benchConfig
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return err
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	for _, seed := range seeds {
		got := map[string]map[string]string{}
		for _, w := range workloads {
			r, _, err := runPass(w, seed, cfg.size, cfg.tmpRoot, nil)
			if err != nil {
				return err
			}
			if r.classified != r.planned || r.quarantined > 0 || len(r.violations) > 0 {
				return fmt.Errorf("%s seed %d: refusing to pin an incorrect run (%d/%d classified, %d quarantined, %v)",
					w.Name, seed, r.classified, r.planned, r.quarantined, r.violations)
			}
			got[w.Name] = r.digests
			fmt.Printf("%s seed %d: %d tables\n", w.Name, seed, len(r.digests))
		}
		if msg := sameTables(got[wlShard], got[wlFleet]); msg != "" {
			return fmt.Errorf("seed %d: %s", seed, msg)
		}
		for _, digests := range got {
			for k, d := range digests {
				pins[k] = d
			}
		}
	}
	data, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile("bench/expected.json", append(data, '\n'), 0o644)
}

// sameTables holds shard-merge and fleet-compare to the same tables: they
// run the same 12 campaigns by different paths. It returns "" or what
// differs.
func sameTables(shard, fleet map[string]string) string {
	if len(shard) == 0 || len(shard) != len(fleet) {
		return fmt.Sprintf("%s rendered %d tables, %s %d", wlShard, len(shard), wlFleet, len(fleet))
	}
	for k, d := range shard {
		if fleet[k] != d {
			return fmt.Sprintf("%s and %s disagree on the table of %s", wlShard, wlFleet, k)
		}
	}
	return ""
}
