// Command spotdc-spans converts a trace-span journal (JSON lines written
// by spotdc-operator -trace-spans, or any Tracer with a Journal) into
// Chrome trace-event JSON loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Each trace — one market slot's lifecycle — renders as
// its own track, with the operator's bid-drain/predict/clear/audit/WAL/
// broadcast phases and any tenant-side spans nested by parentage.
//
// Usage:
//
//	spotdc-spans [-o trace.json] [-slot N] [-check] spans.jsonl
//
// -o writes the converted trace (default stdout); -slot keeps only one
// slot's trace; -check additionally validates the produced JSON against
// the trace-event schema and reports span/trace counts, for CI smoke use.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"spotdc/internal/otrace"
)

func main() {
	out := flag.String("o", "", "write Chrome trace JSON to this file (default stdout)")
	slot := flag.Int("slot", -1, "convert only this slot's trace (-1 = all)")
	check := flag.Bool("check", false, "validate the produced trace-event JSON and print a summary to stderr")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: spotdc-spans [-o trace.json] [-slot N] [-check] spans.jsonl")
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	spans, err := otrace.ReadSpans(f)
	f.Close()
	if err != nil {
		log.Fatalf("%s: %v", flag.Arg(0), err)
	}
	if *slot >= 0 {
		kept := spans[:0]
		for _, s := range spans {
			if s.Slot == *slot {
				kept = append(kept, s)
			}
		}
		spans = kept
	}

	// Render into memory so -check validates exactly the bytes written.
	var buf bytes.Buffer
	if err := otrace.WriteChromeTrace(&buf, spans); err != nil {
		log.Fatal(err)
	}
	if *check {
		if err := otrace.ValidateChromeTrace(buf.Bytes()); err != nil {
			log.Fatalf("%s: produced trace fails validation: %v", flag.Arg(0), err)
		}
		traces := map[string]bool{}
		roots := 0
		for _, s := range spans {
			traces[s.Trace] = true
			if s.Root() {
				roots++
			}
		}
		fmt.Fprintf(os.Stderr, "spotdc-spans: %d spans, %d traces, %d roots — trace-event JSON valid\n",
			len(spans), len(traces), roots)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer of.Close()
		w = of
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Fatal(err)
	}
}
