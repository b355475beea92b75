// Command chistory browses a pool manager's match-history log. Match
// records are classads (one per line, written by cpool -history), so
// the same one-way query language that browses machines browses the
// accounting log. The fair-share table itself is in the collector, in
// the negotiators' own ads:
//
//	cstatus -constraint 'other.Type == "Negotiator"' -long
//
// Usage:
//
//	chistory [-constraint 'EXPR'] [-long] history.log
//	chistory -constraint 'other.Customer == "raman"' history.log
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/classad"
)

func main() {
	constraint := flag.String("constraint", "true", "query constraint over other.*")
	long := flag.Bool("long", false, "print whole records")
	flag.Parse()
	if flag.NArg() != 1 {
		fatalf("exactly one history file expected")
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	records, err := classad.ParseMulti(string(data))
	if err != nil {
		fatalf("%s: %v", flag.Arg(0), err)
	}
	query := classad.NewAd()
	if err := query.SetExprString(classad.AttrConstraint, *constraint); err != nil {
		fatalf("bad constraint: %v", err)
	}
	matched := 0
	if !*long {
		fmt.Printf("%-12s %-6s %-10s %-24s %-28s %10s %10s\n",
			"TIME", "CYCLE", "CUSTOMER", "REQUEST", "OFFER", "REQ-RANK", "OFF-RANK")
	}
	for _, rec := range records {
		if !classad.MatchesQuery(query, rec, nil) {
			continue
		}
		matched++
		if *long {
			fmt.Println(rec.Pretty())
			fmt.Println()
			continue
		}
		t, _ := rec.Eval("Time").IntVal()
		cyc, _ := rec.Eval("Cycle").IntVal()
		fmt.Printf("%-12d %-6d %-10s %-24s %-28s %10.2f %10.2f\n",
			t, cyc, str(rec, "Customer"), str(rec, "RequestName"),
			str(rec, "OfferName"),
			rec.Eval("RequestRank").RankVal(), rec.Eval("OfferRank").RankVal())
	}
	fmt.Printf("%d of %d record(s)\n", matched, len(records))
}

func str(ad *classad.Ad, attr string) string {
	if s, ok := ad.Eval(attr).StringVal(); ok {
		return s
	}
	return "-"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chistory: "+format+"\n", args...)
	os.Exit(2)
}
