// Command briq aligns the quantity mentions of an HTML page against its
// tables and prints the alignments.
//
// Usage:
//
//	briq [-format text|json] [-trained] [-seed N] page.html
//	cat page.html | briq
//
// With -trained, a mention-pair classifier and tagger are first trained on a
// deterministic synthetic corpus (a few seconds); without it the heuristic
// pipeline is used.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"briq"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("briq: ")

	if len(os.Args) > 1 && os.Args[1] == "ingest" {
		runIngest(os.Args[2:])
		return
	}

	format := flag.String("format", "text", "output format: text or json")
	trained := flag.Bool("trained", false, "train models on a synthetic corpus before aligning")
	seed := flag.Int64("seed", 42, "training corpus seed (with -trained)")
	model := flag.String("model", "", "load models from a briq-train file instead of training")
	flag.Parse()

	var src []byte
	var err error
	pageID := "stdin"
	switch flag.NArg() {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		pageID = flag.Arg(0)
		src, err = os.ReadFile(flag.Arg(0))
	default:
		log.Fatal("usage: briq [-format text|json] [-trained] [page.html]")
	}
	if err != nil {
		log.Fatal(err)
	}

	pipeline := briq.New()
	switch {
	case *model != "":
		if *trained {
			log.Fatal("-model and -trained are mutually exclusive")
		}
		if pipeline, err = briq.NewFromModelFile(*model); err != nil {
			log.Fatal(err)
		}
	case *trained:
		pipeline = briq.New(briq.WithTrainedSeed(*seed))
	}

	alignments, err := briq.AlignHTMLContext(context.Background(), pipeline, pageID, string(src))
	if briq.IsUnalignable(err) {
		// Nothing to align is a legitimate outcome for the CLI, not a crash.
		alignments, err = nil, nil
	}
	if err != nil {
		log.Fatal(err)
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(alignments); err != nil {
			log.Fatal(err)
		}
	case "text":
		if len(alignments) == 0 {
			fmt.Println("no alignments")
			return
		}
		for _, a := range alignments {
			fmt.Printf("%-24q → %-28s %s = %g (score %.3f)\n",
				a.TextSurface, a.TableKey, a.AggName, a.Value, a.Score)
		}
	default:
		log.Fatalf("unknown format %q", *format)
	}
}
