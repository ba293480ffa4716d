// Command briq-experiments regenerates the paper's evaluation tables on the
// synthetic corpus.
//
// Usage:
//
//	briq-experiments [-table all|1|2|3|4|5|6|7|8|9|resolvers] [-pages N] [-seed N] [-workers N]
//
// Tables I–VII run on a tableS-style annotated corpus (default 495 pages,
// as in the paper); Tables VIII–IX run on a tableL-style corpus whose size
// is controlled by -lpages. The "resolvers" table compares random walks
// (rwr, the pipeline's resolution step) with the ILP and greedy baselines
// behind identical classify/filter stages: accuracy on the test split and
// docs/sec.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"briq/internal/corpus"
	"briq/internal/experiment"
	"briq/internal/table"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("briq-experiments: ")

	which := flag.String("table", "all", "table to regenerate: all, 1..9, or resolvers (comma separated)")
	pages := flag.Int("pages", 495, "tableS corpus pages (Tables I-VII)")
	lpages := flag.Int("lpages", 600, "tableL corpus pages (Tables VIII-IX)")
	seed := flag.Int64("seed", 42, "corpus and training seed")
	workers := flag.Int("workers", 0, "alignment workers for Table VIII (0 = all cores)")
	flag.Parse()

	want := map[string]bool{}
	for _, t := range strings.Split(*which, ",") {
		want[strings.TrimSpace(t)] = true
	}
	wanted := func(t string) bool { return want["all"] || want[t] }

	var (
		c       *corpus.Corpus
		split   experiment.Split
		trained *experiment.Trained
	)
	needModels := wanted("1") || wanted("2") || wanted("3") || wanted("4") ||
		wanted("5") || wanted("6") || wanted("7") || wanted("resolvers")
	if needModels {
		start := time.Now()
		cfg := corpus.TableSConfig(*seed)
		cfg.Pages = *pages
		c = corpus.Generate(cfg)
		split = experiment.SplitCorpus(c, *seed)
		fmt.Printf("tableS corpus: %d pages, %d documents, %d gold alignments (generated in %v)\n",
			len(c.Pages), len(c.Docs), len(c.Gold), time.Since(start).Round(time.Millisecond))

		start = time.Now()
		var err error
		trained, err = experiment.Train(c, split.Train, experiment.DefaultTrainOptions(*seed))
		if err != nil {
			log.Fatalf("training: %v", err)
		}
		fmt.Printf("trained classifier (%d samples) and tagger in %v\n\n",
			len(trained.Data.Samples), time.Since(start).Round(time.Millisecond))
	}

	systems := func() []experiment.System {
		return []experiment.System{
			experiment.NewRFOnly(trained),
			experiment.NewRWROnly(trained.Opts.FeatureConfig, trained.Opts.Mask),
			experiment.NewBriQ(trained),
		}
	}

	if wanted("1") {
		fmt.Println(experiment.RunTableI(trained.Data))
	}
	if wanted("2") {
		rep, _ := experiment.RunTableII(c, systems(), split.Test)
		fmt.Println(rep)
	}
	if wanted("3") {
		rep, _ := experiment.RunByType("Table III", experiment.NewRFOnly(trained), c, split.Test)
		fmt.Println(rep)
	}
	if wanted("4") {
		rep, _ := experiment.RunByType("Table IV",
			experiment.NewRWROnly(trained.Opts.FeatureConfig, trained.Opts.Mask), c, split.Test)
		fmt.Println(rep)
	}
	if wanted("5") {
		rep, _ := experiment.RunByType("Table V", experiment.NewBriQ(trained), c, split.Test)
		fmt.Println(rep)
	}
	if wanted("6") {
		rep, _ := experiment.RunTableVI(c, trained, split.Test)
		fmt.Println(rep)
	}
	if wanted("7") {
		rep, _, err := experiment.RunTableVII(c, split, experiment.DefaultTrainOptions(*seed))
		if err != nil {
			log.Fatalf("table VII: %v", err)
		}
		fmt.Println(rep)
	}

	if wanted("resolvers") {
		rep, _ := experiment.RunTableResolvers(c, trained, split.Test)
		fmt.Println(rep)
	}

	if wanted("8") || wanted("9") {
		start := time.Now()
		lc := corpus.Generate(corpus.TableLConfig(*seed+1, *lpages))
		fmt.Printf("tableL corpus: %d pages, %d documents (generated in %v)\n\n",
			len(lc.Pages), len(lc.Docs), time.Since(start).Round(time.Millisecond))
		if wanted("8") {
			pipeline, err := trainedOrHeuristic(trained, *seed)
			if err != nil {
				log.Fatal(err)
			}
			rep, _ := experiment.RunTableVIII(lc, pipeline.P, *workers)
			fmt.Println(rep)
			stages, _ := experiment.RunStageBreakdown(lc, pipeline.P, *workers)
			fmt.Println(stages)
		}
		if wanted("9") {
			rep, _ := experiment.RunTableIX(lc, table.DefaultVirtualOptions())
			fmt.Println(rep)
		}
	}
}

// trainedOrHeuristic wraps the trained BriQ system, or trains a small one
// when Tables I-VII were skipped.
func trainedOrHeuristic(tr *experiment.Trained, seed int64) (*experiment.BriQ, error) {
	if tr != nil {
		return experiment.NewBriQ(tr), nil
	}
	cfg := corpus.TableSConfig(seed)
	cfg.Pages = 120
	c := corpus.Generate(cfg)
	split := experiment.SplitCorpus(c, seed)
	trained, err := experiment.Train(c, split.Train, experiment.DefaultTrainOptions(seed))
	if err != nil {
		return nil, err
	}
	return experiment.NewBriQ(trained), nil
}
