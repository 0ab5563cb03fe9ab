// Command nutriprofile estimates the nutritional profile of a recipe from
// its ingredient section, the end-to-end pipeline of the paper.
//
// Usage:
//
//	nutriprofile [-servings N] [-v] "2 cups flour" "1 cup sugar" ...
//	echo "2 cups flour" | nutriprofile -servings 4
//	nutriprofile -file recipe.txt -regional -yield
//	nutriprofile -batch -workers 8 recipes/*.txt
//
// Each argument (or stdin line) is one ingredient phrase; -file parses a
// full plain-text recipe (title, servings, ingredient and instruction
// sections). The tool prints the per-ingredient mapping trace and the
// total and per-serving nutrient profiles.
//
// -batch switches to corpus mode: every argument is a plain-text recipe
// file, estimated concurrently on a -workers-sized pool sharing one
// memoized estimator (-cache entries); one summary line per recipe is
// printed in argument order.
//
// -stats appends the hot path's observability counters to either mode:
// phrase/match memoization cache hit rates and the matcher engine's
// index shape (vocabulary size, posting lists) and arena-pool hit rate.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"nutriprofile/internal/core"
	"nutriprofile/internal/memo"
	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/report"
	"nutriprofile/internal/usda"
	"nutriprofile/internal/yield"
)

func main() {
	servings := flag.Int("servings", 1, "number of servings the recipe yields")
	verbose := flag.Bool("v", false, "print the per-ingredient extraction and match trace")
	file := flag.String("file", "", "parse a plain-text recipe file instead of phrase arguments")
	regional := flag.Bool("regional", false, "use the merged SR+FAO composition table")
	applyYield := flag.Bool("yield", false, "apply the cooking-yield correction (method from the recipe text)")
	fuzzy := flag.Bool("fuzzy", false, "enable typo-tolerant matching")
	batch := flag.Bool("batch", false, "treat every argument as a recipe file and estimate them concurrently")
	workers := flag.Int("workers", 0, "worker pool size for -batch and ingredient estimation (default: one per CPU)")
	cacheSize := flag.Int("cache", 8192, "memoization cache entries (phrase + match level); 0 disables")
	cachePolicy := flag.String("cache-policy", "tinylfu", "memo cache admission policy: lru or tinylfu")
	stats := flag.Bool("stats", false, "print memoization-cache and matcher-engine statistics after estimation")
	flag.Parse()

	policy, err := memo.ParsePolicy(*cachePolicy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nutriprofile: %v\n", err)
		os.Exit(2)
	}

	phrases := flag.Args()
	method := yield.None
	if *batch {
		runBatch(flag.Args(), *regional, *fuzzy, *applyYield, *verbose, *stats, *workers, *cacheSize, policy)
		return
	}
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nutriprofile: %v\n", err)
			os.Exit(1)
		}
		rec, err := recipedb.ParseText(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "nutriprofile: %v\n", err)
			os.Exit(1)
		}
		phrases = rec.Phrases()
		method = rec.Method
		if rec.Servings > 0 {
			*servings = rec.Servings
		}
		fmt.Printf("%s  (%q, %d servings, method: %s)\n\n",
			rec.Title, rec.ServingsText, *servings, method)
	}
	if len(phrases) == 0 {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			if line := sc.Text(); line != "" {
				phrases = append(phrases, line)
			}
		}
		if err := sc.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "nutriprofile: reading stdin: %v\n", err)
			os.Exit(1)
		}
	}
	if len(phrases) == 0 {
		fmt.Fprintln(os.Stderr, "nutriprofile: no ingredient phrases given (args, stdin or -file)")
		os.Exit(2)
	}

	e := newEstimator(*regional, *fuzzy, *cacheSize, policy)
	if !*applyYield {
		method = yield.None
	}
	res, err := e.EstimateRecipeCookedConcurrent(phrases, *servings, method, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nutriprofile: %v\n", err)
		os.Exit(1)
	}

	tb := report.NewTable("Ingredient Phrase", "Matched Food Description", "Grams", "kcal")
	for _, ir := range res.Ingredients {
		desc := "(unmatched)"
		if ir.Matched {
			desc = ir.Match.Desc
		}
		tb.AddRow(ir.Phrase, desc, report.F2(ir.Grams), report.F2(ir.Profile.EnergyKcal))
	}
	fmt.Print(tb.String())
	fmt.Printf("\nMapped %s of ingredient lines\n", report.Pct(res.MappedFraction))

	if *verbose {
		fmt.Println()
		for _, ir := range res.Ingredients {
			fmt.Printf("%q\n  NER: name=%q state=%q qty=%q unit=%q temp=%q df=%q size=%q\n",
				ir.Phrase, ir.Extraction.Name, ir.Extraction.State,
				ir.Extraction.Quantity, ir.Extraction.Unit,
				ir.Extraction.Temp, ir.Extraction.DryFresh, ir.Extraction.Size)
			if ir.Matched {
				fmt.Printf("  match: %q (NDB %d, J*=%.3f)\n  unit: %s via %s/%s → %.1f g\n",
					ir.Match.Desc, ir.Match.NDB, ir.Match.Score,
					ir.Unit, ir.UnitOrigin, ir.GramsVia, ir.Grams)
			}
		}
	}

	fmt.Printf("\nTotal (%d serving(s)):\n%s", *servings, res.Total.Table())
	if *servings > 1 {
		fmt.Printf("\nPer serving:\n%s", res.PerServing.Table())
	}
	if *stats {
		printStats(e)
	}
}

// printStats dumps the estimation hot path's observability counters: the
// two memoization caches and the interned matcher engine (index shape
// plus arena-pool recycling).
func printStats(e *core.Estimator) {
	ps, ms := e.CacheStats()
	fmt.Printf("\nphrase cache:  %d hits / %d misses (%.0f%% hit rate), %d evictions, %d entries [%s]\n",
		ps.Hits, ps.Misses, 100*ps.HitRate(), ps.Evictions, ps.Entries, ps.Policy)
	fmt.Printf("match cache:   %d hits / %d misses (%.0f%% hit rate), %d evictions, %d entries [%s]\n",
		ms.Hits, ms.Misses, 100*ms.HitRate(), ms.Evictions, ms.Entries, ms.Policy)
	if ps.Policy == "tinylfu" {
		fmt.Printf("admission:     phrase %d admitted / %d rejected, match %d admitted / %d rejected, %d sketch resets\n",
			ps.Admissions, ps.Rejections, ms.Admissions, ms.Rejections, ps.SketchResets+ms.SketchResets)
	}
	st := e.MatcherStats()
	fmt.Printf("matcher index: %d docs, %d-term vocabulary, %d posting lists, %d postings\n",
		st.Docs, st.VocabSize, st.PostingLists, st.PostingEntries)
	fmt.Printf("matcher arena: %d queries, %d pool misses (%.0f%% pool hit rate)\n",
		st.PoolGets, st.PoolMisses, 100*st.PoolHitRate())
	fmt.Printf("matcher prune: %d postings avoided, %d candidates dropped, %d compactions, %d gather exits, %d probe terms, %d terms skipped\n",
		st.PrunePostingsAvoided, st.PruneDocsDropped, st.PruneCompactions,
		st.PruneGatherExits, st.AdaptiveProbeTerms, st.PruneTermsSkipped)
}

// newEstimator builds the shared estimator from the CLI switches.
func newEstimator(regional, fuzzy bool, cacheSize int, policy memo.Policy) *core.Estimator {
	db := usda.Seed()
	if regional {
		db = usda.WithRegional()
	}
	e, err := core.New(db, nil, core.Options{FuzzyMatch: fuzzy, CacheSize: cacheSize, CachePolicy: policy})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nutriprofile: %v\n", err)
		os.Exit(1)
	}
	return e
}

// runBatch is corpus mode: each arg is a recipe file; all recipes are
// estimated concurrently on one worker pool sharing one memoized
// estimator, and summarized one line per recipe in argument order.
func runBatch(files []string, regional, fuzzy, applyYield, verbose, stats bool, workers, cacheSize int, policy memo.Policy) {
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "nutriprofile: -batch requires recipe-file arguments")
		os.Exit(2)
	}
	type meta struct {
		title    string
		parseErr error
	}
	inputs := make([]core.RecipeInput, len(files))
	metas := make([]meta, len(files))
	for i, path := range files {
		f, err := os.Open(path)
		if err != nil {
			metas[i].parseErr = err
			continue
		}
		rec, err := recipedb.ParseText(f)
		f.Close()
		if err != nil {
			metas[i].parseErr = err
			continue
		}
		servings := rec.Servings
		if servings <= 0 {
			servings = 1
		}
		method := yield.None
		if applyYield {
			method = rec.Method
		}
		metas[i].title = rec.Title
		inputs[i] = core.RecipeInput{Phrases: rec.Phrases(), Servings: servings, Method: method}
	}

	e := newEstimator(regional, fuzzy, cacheSize, policy)
	outcomes := e.EstimateRecipes(inputs, workers)

	tb := report.NewTable("Recipe", "Title", "Mapped", "Total kcal", "kcal/serving")
	failures := 0
	for i, out := range outcomes {
		switch {
		case metas[i].parseErr != nil:
			failures++
			fmt.Fprintf(os.Stderr, "nutriprofile: %s: %v\n", files[i], metas[i].parseErr)
		case out.Err != nil:
			failures++
			fmt.Fprintf(os.Stderr, "nutriprofile: %s: %v\n", files[i], out.Err)
		default:
			tb.AddRow(files[i], metas[i].title, report.Pct(out.Result.MappedFraction),
				report.F2(out.Result.Total.EnergyKcal), report.F2(out.Result.PerServing.EnergyKcal))
		}
	}
	fmt.Print(tb.String())
	if verbose || stats {
		printStats(e)
	}
	if failures > 0 {
		os.Exit(1)
	}
}
