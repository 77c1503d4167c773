// Command svmlint runs the simulator's domain-specific static analyzers
// (determinism, wall-clock, unit, float-comparison, lock-discipline,
// simulated-time and stats-wiring invariants) over the repository,
// type-checking the requested packages as one whole program. See
// internal/lint for the analyzer catalogue and DESIGN.md for the invariants
// each one encodes.
//
// Usage:
//
//	svmlint ./...                     # everything, text output
//	svmlint -json ./internal/proto    # one package, machine-readable
//	svmlint -disable units ./...      # skip an analyzer
//	svmlint -analyzers                # list analyzers
//
// A finding is accepted only by an //svmlint:ignore <analyzer> <reason>
// comment on or above its line.
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"os"

	"svmsim/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
