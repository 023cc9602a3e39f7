// Command simlint runs the Time Warp kernel's static analyzer suite
// (reversecheck, determcheck, ownercheck — see docs/ANALYSIS.md) over the
// packages matched by its arguments, defaulting to ./...
//
// Exit status is 1 when unwaived findings are reported, 2 on usage or
// load errors. Findings are waived, where intentional, with
// //simlint:<keyword> <reason> annotations; an unexplained, unknown,
// misplaced or stale annotation is itself a finding. -format json emits
// every finding — waived ones included — as stable machine-readable
// records for CI annotation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
)

// jsonFinding is the stable machine-readable record -format json emits.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Waived   bool   `json:"waived"`
}

func main() {
	tests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	list := flag.Bool("list", false, "list the analyzers and exit")
	format := flag.String("format", "text", "output format: text or json")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simlint [-tests] [-format text|json] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the simlint analyzers over the given package patterns (default ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			hatch := ""
			if a.Keyword != "" {
				hatch = fmt.Sprintf(" (waive: //simlint:%s <reason>)", a.Keyword)
			}
			fmt.Printf("%-14s %s%s\n", a.Name, a.Doc, hatch)
		}
		return
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "simlint: unknown format %q (want text or json)\n", *format)
		os.Exit(2)
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	findings, err := driver.Run(wd, *tests, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	failing := driver.Unwaived(findings)
	switch *format {
	case "json":
		records := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			f = driver.Rel(wd, f)
			records = append(records, jsonFinding{
				Analyzer: f.Analyzer,
				File:     f.Position.Filename,
				Line:     f.Position.Line,
				Col:      f.Position.Column,
				Message:  f.Message,
				Waived:   f.Waived,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
	default:
		for _, f := range failing {
			fmt.Println(driver.Rel(wd, f))
		}
	}
	if len(failing) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(failing))
		os.Exit(1)
	}
}
