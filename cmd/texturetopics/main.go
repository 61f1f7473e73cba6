// Command texturetopics runs the full texture-mining pipeline — corpus,
// word2vec relatedness filter, dataset filters, joint topic model — and
// prints the paper's Table II(a): the acquired topics with their gel
// concentrations, ranked texture terms, recipe counts, and the Table I
// empirical rows assigned to each topic by KL divergence.
//
// Usage:
//
//	texturetopics [-scale 1.0] [-k 10] [-iters 300] [-seed 1]
//	              [-collapsed] [-no-filter] [-no-emulsion]
//	              [-stream corpus.jsonl] [-corpus-size 0] [-ingest-dir dir]
//	              [-shards 1]
//	              [-model-out model.json] [-bundle-out model.bundle]
//	              [-store fs:DIR|mem:] [-publish-note text] [-promote]
//	              [-checkpoint-dir dir] [-checkpoint-every 25] [-resume]
//	              [-supervise] [-max-restarts 3] [-sweep-timeout 0] [-max-ll-drop 0]
//	              [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	              [-v] [-log-format text|json] [-log-every 50]
//
// The fit flags (-scale, -iters, the checkpoint and supervision flags,
// -shards, -log-every) are pipeline.FitFlags, shared with textureserver.
// Every fit is one chain under the resilience supervisor; -supervise
// gives it a restart budget and health thresholds instead of one
// attempt, and -shards N runs it on N workers.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"

	"context"

	"repro/internal/ingest"
	"repro/internal/lexicon"
	"repro/internal/linkage"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/storage"
)

func main() {
	var (
		k         = flag.Int("k", 10, "number of topics")
		seed      = flag.Uint64("seed", 1, "model seed")
		collapsed = flag.Bool("collapsed", false, "use the collapsed sampler")
		noFilter  = flag.Bool("no-filter", false, "disable the word2vec relatedness filter")
		noEmu     = flag.Bool("no-emulsion", false, "drop the emulsion likelihood (gel-only ablation)")
		stream    = flag.String("stream", "", "stream this JSONL corpus file record-at-a-time instead of generating in memory")
		corpSize  = flag.Int("corpus-size", 0, "stream exactly this many synthetic recipes through ingestion without materializing them (overrides -scale)")
		ingestDir = flag.String("ingest-dir", "", "fold this online-ingest WAL's records into the fit, appended after the -stream/-corpus-size base")
		modelOut  = flag.String("model-out", "", "write the fitted model JSON to this file")
		bundleOut = flag.String("bundle-out", "", "write the full serving bundle (model+docs+exclusions) to this file")
		storeSpec = flag.String("store", "", "publish the bundle to this model store (fs:DIR, mem:, or a bare directory)")
		pubNote   = flag.String("publish-note", "", "operator note recorded on the published generation (with -store)")
		promote   = flag.Bool("promote", false, "promote the published generation so follower replicas roll to it (with -store)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a post-run heap profile to this file")
		verbose   = flag.Bool("v", false, "print progress and the validation summary")
		logFormat = flag.String("log-format", "text", "progress log format: text or json")
	)
	fit := pipeline.RegisterFitFlags(flag.CommandLine)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "texturetopics:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "texturetopics:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "texturetopics:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "texturetopics:", err)
			}
		}()
	}

	var logger *slog.Logger
	if *verbose {
		logger = obs.NewLogger(os.Stderr, *logFormat)
	}
	opts := fit.Options(logger)
	opts.Model.K = *k
	opts.Model.Seed = *seed
	opts.Model.Collapsed = *collapsed
	opts.Model.UseEmulsion = !*noEmu
	opts.UseW2VFilter = !*noFilter

	var base pipeline.StreamSource
	switch {
	case *stream != "":
		base = pipeline.FileSource(*stream)
	case *corpSize > 0:
		base = pipeline.GeneratedSource(opts.Corpus, *corpSize)
	}

	var out *pipeline.Output
	var err error
	switch {
	case *ingestDir != "":
		// The batch analogue of the server's background re-fit: replay
		// every WAL record (deduplicated by canonical hash) after the
		// frozen base, so an offline fit covers online growth too.
		out, err = pipeline.RunStream(ingest.CombinedSource(base, *ingestDir, 0), opts)
	case base != nil:
		out, err = pipeline.RunStream(base, opts)
	default:
		out, err = pipeline.Run(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "texturetopics:", err)
		os.Exit(1)
	}
	if *verbose {
		if out.Ingest != nil {
			fmt.Printf("corpus: %d records streamed (%d skipped), %d kept (dropped: %d no-gel, %d no-texture, %d unrelated>10%%)\n",
				out.Ingest.Decoded+len(out.Ingest.Skipped), len(out.Ingest.Skipped), len(out.Docs),
				out.FilterStats.NoGel, out.FilterStats.NoTexture, out.FilterStats.TooUnrelated)
		} else {
			fmt.Printf("corpus: %d recipes, %d kept (dropped: %d no-gel, %d no-texture, %d unrelated>10%%)\n",
				len(out.AllRecipes), len(out.Kept),
				out.FilterStats.NoGel, out.FilterStats.NoTexture, out.FilterStats.TooUnrelated)
		}
		for _, inc := range out.FitIncidents {
			fmt.Printf("fit incident: attempt %d sweep %d %s → %s (%s)\n",
				inc.Attempt, inc.Sweep, inc.Kind, inc.Action, inc.Detail)
		}
		if len(out.ExcludedTerms) > 0 {
			fmt.Println("word2vec filter excluded terms:")
			for term, offending := range out.ExcludedTerms {
				fmt.Printf("  %s (neighbours: %v)\n", term, offending)
			}
		}
	}

	rows, assignments, err := report.BuildTableIIa(out, linkage.DefaultConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "texturetopics:", err)
		os.Exit(1)
	}
	fmt.Print(report.RenderTableIIa(out, rows))

	if *verbose {
		val := linkage.Validate(out.Model, lexicon.Default(), assignments)
		fmt.Print(report.RenderValidation(val))
	}

	if *modelOut != "" {
		f, err := os.Create(*modelOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "texturetopics:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := out.Model.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "texturetopics:", err)
			os.Exit(1)
		}
		if *verbose {
			fmt.Println("model written to", *modelOut)
		}
	}

	if *bundleOut != "" {
		if err := out.SaveBundleFile(*bundleOut); err != nil {
			fmt.Fprintln(os.Stderr, "texturetopics:", err)
			os.Exit(1)
		}
		if *verbose {
			fmt.Println("bundle written to", *bundleOut)
		}
	}

	if *storeSpec != "" {
		st, err := storage.Open(*storeSpec, storage.RobustOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "texturetopics:", err)
			os.Exit(1)
		}
		reg := storage.NewRegistry(st)
		bundle, _, err := out.EncodeBundle()
		if err != nil {
			fmt.Fprintln(os.Stderr, "texturetopics:", err)
			os.Exit(1)
		}
		ctx := context.Background()
		gen, err := reg.Publish(ctx, bundle, *pubNote)
		if err != nil {
			fmt.Fprintln(os.Stderr, "texturetopics: publish:", err)
			os.Exit(1)
		}
		fmt.Printf("published generation %d (digest %s, %d bytes) to %s\n",
			gen.ID, gen.Digest, gen.Size, *storeSpec)
		if *promote {
			if err := reg.Promote(ctx, gen.ID); err != nil {
				fmt.Fprintln(os.Stderr, "texturetopics: promote:", err)
				os.Exit(1)
			}
			fmt.Printf("promoted generation %d; follower replicas converge within one poll interval\n", gen.ID)
		}
	}
}
