// Command cadeval evaluates classad expressions and tests pairwise
// matches from the command line — the debugging tool every classad
// deployment grows.
//
// Usage:
//
//	cadeval -expr 'EXPR' [-ad FILE]      evaluate EXPR against an ad
//	cadeval -match LEFT RIGHT            bilateral match of two ad files
//	cadeval -pretty FILE                 parse and pretty-print an ad
//	cadeval -functions                   list builtin functions: name,
//	                                     argument count, result types
//
// With -match, the exit status is 0 for a match and 1 otherwise, so
// shell scripts can branch on compatibility.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/classad"
)

func main() {
	expr := flag.String("expr", "", "expression to evaluate")
	adFile := flag.String("ad", "", "classad file providing the evaluation scope")
	match := flag.Bool("match", false, "match two classad files (the two positional arguments)")
	pretty := flag.String("pretty", "", "parse a classad file and pretty-print it")
	functions := flag.Bool("functions", false, "list builtin functions")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cadeval -expr 'EXPR' [-ad FILE] | -match LEFT RIGHT | -pretty FILE | -functions\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	switch {
	case *functions:
		for _, name := range classad.BuiltinNames() {
			b, _ := classad.LookupBuiltin(name)
			args := strconv.Itoa(b.Min)
			if b.Max < 0 {
				args += "+"
			} else if b.Max != b.Min {
				args += "-" + strconv.Itoa(b.Max)
			}
			impure := ""
			if b.Impure {
				impure = " (impure)"
			}
			fmt.Printf("%-16s %-4s %s%s\n", name, args, b.Results, impure)
		}
	case *pretty != "":
		ad := loadAd(*pretty)
		fmt.Println(ad.Pretty())
	case *match:
		if flag.NArg() != 2 {
			fatalf("-match needs exactly two ad files")
		}
		left, right := loadAd(flag.Arg(0)), loadAd(flag.Arg(1))
		res := classad.Match(left, right)
		fmt.Printf("matched:    %v\n", res.Matched)
		fmt.Printf("left  side: constraint=%v rank-of-right=%g\n", res.LeftOK, res.LeftRank)
		fmt.Printf("right side: constraint=%v rank-of-left=%g\n", res.RightOK, res.RightRank)
		if !res.Matched {
			os.Exit(1)
		}
	case *expr != "":
		var scope *classad.Ad
		if *adFile != "" {
			scope = loadAd(*adFile)
		}
		v, err := classad.EvalString(*expr, scope)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s  (%s)\n", v, v.Type())
		if msg := v.ErrMessage(); msg != "" {
			fmt.Fprintf(os.Stderr, "error detail: %s\n", msg)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func loadAd(path string) *classad.Ad {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	ad, err := classad.Parse(string(data))
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	return ad
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cadeval: "+format+"\n", args...)
	os.Exit(2)
}
