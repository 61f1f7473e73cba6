package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

const (
	// refitRecipes is the refit corpus size: small enough that at least
	// three corpus → promoted runs fit in one measured window.
	refitRecipes = 5000
	minFits      = 3
	// refitCorpusSeed fixes the refit corpus. The two-shard fit lands
	// in a different local optimum for each corpus (NMI 0.56-0.86 and
	// fit time ±8% over corpus seeds 1-10), far wider than any useful
	// bound, so every run fits the same corpus and the spread left is
	// the host's. It is not 7, the served model's corpus seed.
	refitCorpusSeed = 11
	// minRefitNMI is the floor on the promoted model's NMI against the
	// corpus truth: the measured 0.699 minus 0.02.
	minRefitNMI = 0.679
	// minRefitPlacement is the floor on the share of the promoted model's
	// own documents placed in their label's majority topic: the measured
	// 0.553 minus 0.02. Fold-in placement through the follower is not
	// used here: it depends on which pool member's chain serves each
	// request, and a serving change must not move this workload.
	minRefitPlacement = 0.533
)

// writeCorpus streams n generated recipes to path as JSONL.
func writeCorpus(path string, seed uint64, n int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	cfg := corpus.DefaultConfig()
	cfg.Seed = seed
	if err := corpus.GenerateTo(cfg, bw, n); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runRefit is the refit workload: corpus → promoted bundle with
// texturetopics, repeated into fresh stores, then a registry follower
// started from the last store. Nothing serves load unless the run is
// traced.
func runRefit(e *env, res *outcome) error {
	corpusPath := filepath.Join(e.work, "corpus.jsonl")
	if err := writeCorpus(corpusPath, refitCorpusSeed, refitRecipes); err != nil {
		return fmt.Errorf("writing refit corpus: %w", err)
	}

	budget := time.Duration(e.seconds) * time.Second
	var walls, rss []float64
	var store, digest string
	var last time.Duration
	// Followers are started from the latest store after every fit, and
	// once more at the end to stay up: 2 × fits + 1 timed starts.
	su := &setups{e: e, args: func(int) []string { return []string{"-store", "fs:" + store} }}
	start := time.Now()
	for n := 0; n < minFits || time.Since(start)+last <= budget; n++ {
		store = filepath.Join(e.work, fmt.Sprintf("store-%d", n))
		res.Attempted++
		wall, peak, err := runProc(e.topics,
			[]string{"-stream", corpusPath, "-shards", "2", "-store", "fs:" + store, "-promote"},
			filepath.Join(e.work, fmt.Sprintf("texturetopics-%d.log", n)))
		if err != nil {
			return err
		}
		last = wall
		walls = append(walls, wall.Seconds())
		rss = append(rss, peak)
		// The same corpus and seed must promote byte-identical bundles.
		g, _, err := promoted(store)
		if err != nil {
			return err
		}
		if n > 0 && g.Digest != digest {
			res.Problems = append(res.Problems, fmt.Sprintf("fit %d promoted digest %.12s, fit 0 promoted %.12s", n, g.Digest, digest))
		}
		digest = g.Digest
		if err := su.probe(setupsPerGap); err != nil {
			return err
		}
	}

	gen, bundle, err := promoted(store)
	if err != nil {
		return err
	}
	out, err := pipeline.LoadBundle(bytes.NewReader(bundle))
	if err != nil {
		return err
	}
	mi, err := inspectModel(out)
	if err != nil {
		return err
	}
	if mi.nmi < minRefitNMI {
		res.Problems = append(res.Problems, fmt.Sprintf("promoted model NMI %.4f below the %.3f floor", mi.nmi, minRefitNMI))
	}
	if mi.placement < minRefitPlacement {
		res.Problems = append(res.Problems, fmt.Sprintf("promoted model places %.4f of its documents, below the %.3f floor", mi.placement, minRefitPlacement))
	}

	follower, err := su.start()
	if err != nil {
		return err
	}
	su.record(res)
	res.Attempted++
	if st, err := fetchStats(follower.base); err != nil || st.Registry == nil || st.Registry.Generation != gen.ID || st.Registry.Degraded {
		res.Failed++
		res.Problems = append(res.Problems, fmt.Sprintf("follower does not serve promoted generation %d: %+v %v", gen.ID, st.Registry, err))
	}

	// The fit time is reported, not gated: like the serving latencies it
	// drifts with the host's speed by more than its bound.
	res.Reported.set("fit_s", median(append([]float64(nil), walls...)), "s")
	res.EndToEnd.set("placement_acc", mi.placement, "fraction")
	res.EndToEnd.set("fit_nmi", mi.nmi, "fraction")
	// A process's peak RSS swings with its GC timing; the peak over the
	// run's fits is steadier than their median.
	peak := 0.0
	for _, r := range rss {
		peak = math.Max(peak, r)
	}
	res.EndToEnd.set("peak_rss_mb", peak, "MB")
	res.Windows["fit_s"], res.Windows["peak_rss_mb"] = walls, rss

	if !e.trace {
		follower.stop()
		return nil
	}
	// Traced: the serving layers are measured on the promoted model,
	// with probe recipes posted to the follower as in annotate-cold.
	pool, err := makePool(probeSeed(e.seed)+1, poolSize)
	if err != nil {
		return err
	}
	t := newTraffic("refit", e.seed, pool)
	probe := &outcome{Valid: true, EndToEnd: metrics{}, PerLayer: res.PerLayer, Reported: metrics{}, Windows: map[string][]float64{}}
	_, err = driveHTTP(e, t, follower.base, fixedRate["annotate-cold"], mi, probe, nil)
	follower.stop()
	if err != nil {
		return err
	}
	res.Attempted += probe.Attempted
	res.Failed += probe.Failed
	res.Valid = res.Valid && probe.Valid
	res.Problems = append(res.Problems, probe.Problems...)

	path := filepath.Join(e.work, "promoted.bundle")
	if err := os.WriteFile(path, bundle, 0o644); err != nil {
		return err
	}
	return runTraced(e, "refit", t, path, res)
}

// promoted reads the promoted generation and its verified bundle bytes
// from an fs store.
func promoted(dir string) (storage.Generation, []byte, error) {
	st, err := storage.Open("fs:"+dir, storage.RobustOptions{})
	if err != nil {
		return storage.Generation{}, nil, err
	}
	reg := storage.NewRegistry(st)
	ctx := context.Background()
	gen, err := reg.Promoted(ctx)
	if err != nil {
		return gen, nil, err
	}
	b, err := reg.Fetch(ctx, gen)
	return gen, b, err
}
