// Command briq-train trains the BriQ models (mention-pair classifier and
// text-mention tagger) on a synthetic corpus and writes them to a model
// file that cmd/briq and cmd/briq-server can load without retraining.
//
// Usage:
//
//	briq-train -out briq.model [-pages N] [-seed N] [-tune]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"briq/internal/corpus"
	"briq/internal/experiment"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("briq-train: ")

	out := flag.String("out", "", "output model file (required)")
	pages := flag.Int("pages", 495, "training corpus pages")
	seed := flag.Int64("seed", 42, "corpus and training seed")
	tune := flag.Bool("tune", false, "grid-search graph/filter parameters on the validation split and print the best (slow; the model file does not keep them)")
	flag.Parse()
	if *out == "" {
		log.Fatal("-out is required")
	}

	start := time.Now()
	cfg := corpus.TableSConfig(*seed)
	cfg.Pages = *pages
	c := corpus.Generate(cfg)
	split := experiment.SplitCorpus(c, *seed)
	fmt.Printf("corpus: %d pages, %d documents, %d gold alignments (%v)\n",
		len(c.Pages), len(c.Docs), len(c.Gold), time.Since(start).Round(time.Millisecond))

	start = time.Now()
	trained, err := experiment.Train(c, split.Train, experiment.DefaultTrainOptions(*seed))
	if err != nil {
		log.Fatalf("training: %v", err)
	}
	fmt.Printf("trained on %d samples (%v)\n", len(trained.Data.Samples), time.Since(start).Round(time.Millisecond))

	eval := experiment.Evaluate(experiment.NewBriQ(trained), c, split.Test)
	fmt.Printf("test quality: P=%.3f R=%.3f F1=%.3f\n",
		eval.Overall.Precision, eval.Overall.Recall, eval.Overall.F1)

	if *tune {
		start = time.Now()
		graphTune := experiment.TuneGraph(c, trained, split.Val)
		filterTune := experiment.TuneFilter(c, trained, split.Val)
		fmt.Printf("tuned: graph %v (F1 %.3f), filter %v (F1 %.3f) in %v\n",
			graphTune.Params, graphTune.F1, filterTune.Params, filterTune.F1,
			time.Since(start).Round(time.Millisecond))
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := experiment.SaveModels(f, trained); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d KB)\n", *out, info.Size()/1024)
}
