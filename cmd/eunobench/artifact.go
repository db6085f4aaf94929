package main

// The BENCH_*.json perf-trajectory artifacts (-benchjson): each file is a
// suite header plus labeled runs. Recording a run replaces any run with
// the same label and leaves every other run byte-identical, so
// before/after numbers stay comparable across PRs whatever the recording
// build's idea of a run's schema is.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

var (
	benchjson  = flag.String("benchjson", "", "record the run in the JSON artifact at `file` (hostbench, swarm, swarmchaos, reshardchaos)")
	benchlabel = flag.String("benchlabel", "current", "run label recorded in the JSON artifact")
)

// artifact is one BENCH_*.json file. Runs stay raw JSON: only the run
// being recorded is ever re-encoded.
type artifact struct {
	path  string
	Suite string            `json:"suite"`
	Note  string            `json:"note"`
	Runs  []json.RawMessage `json:"runs"`
}

// runStamp opens every recorded run.
type runStamp struct {
	Label     string `json:"label"`
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
}

func newStamp(label string) runStamp {
	return runStamp{Label: label, Date: time.Now().UTC().Format("2006-01-02"), GoVersion: runtime.Version()}
}

// loadArtifact parses the artifact at path; a missing file is a fresh
// suite with the given header (an existing file keeps its own).
func loadArtifact(path, suite, note string) (*artifact, error) {
	a := &artifact{path: path, Suite: suite, Note: note}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return a, nil
	}
	if err == nil {
		err = json.Unmarshal(data, a)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return a, nil
}

// record writes run into the artifact under label, in place of any run
// already carrying it.
func (a *artifact) record(label string, run any) error {
	enc, err := json.Marshal(run)
	if err != nil {
		return err
	}
	kept := a.Runs[:0]
	for _, r := range a.Runs {
		var old runStamp
		if err := json.Unmarshal(r, &old); err != nil {
			return fmt.Errorf("%s: %v", a.path, err)
		}
		if old.Label != label {
			kept = append(kept, r)
		}
	}
	a.Runs = append(kept, enc)
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(a.path, append(data, '\n'), 0o644)
}

// openArtifact parses the -benchjson artifact before the subcommand does
// any work, so a corrupt file fails in a moment and not after a
// minute-long run. It returns nil when the flag is unset.
func openArtifact(suite, note string) *artifact {
	if *benchjson == "" {
		return nil
	}
	a, err := loadArtifact(*benchjson, suite, note)
	if err != nil {
		die(err)
	}
	return a
}

// save records run and says so; a nil artifact records nothing.
func (a *artifact) save(label string, run any) {
	if a == nil {
		return
	}
	if err := a.record(label, run); err != nil {
		die(err)
	}
	fmt.Printf("wrote %s (label %q)\n", a.path, label)
}

func die(err error) {
	fmt.Fprintf(os.Stderr, "eunobench: %v\n", err)
	os.Exit(1)
}
