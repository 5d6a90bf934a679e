// Command glslint runs the shader static-analysis diagnostics over GLSL
// ES 1.00 sources and prints compiler-style findings: arithmetic that
// misses the free MAD fusion, expanded code with a single-instruction
// builtin equivalent (dot, clamp), possibly-uninitialised reads,
// always-discarded fragments, per-device implementation-limit headroom —
// the static view of the paper's Fig. 4b compile cliff — and the
// lattice-driven findings: uniform branches, divergent discards,
// provably-dead clamps, statically unbounded sampler footprints, and the
// lane engine's eligibility verdict.
//
// Usage:
//
//	glslint [-stage fragment|vertex] [-limits vc4|sgx|generic|all|none]
//	        [-D NAME=VALUE]... [-json] [file.glsl ...]
//
// With no files, the source is read from standard input. Findings are
// printed as "file:line:col: severity: [code] message", or, with -json,
// as one machine-readable JSON document (schema "gles2gpgpu.glslint/1"):
//
//	{"schema": "gles2gpgpu.glslint/1",
//	 "files": [{"file": "k.glsl", "ok": true,
//	            "findings": [{"code": "mad-fusion", "severity": "warning",
//	                          "line": 7, "col": 2, "msg": "..."}]}]}
//
// A file that fails to compile reports "ok": false with the front-end
// error in "error" and no findings. The exit status is 1 when any source
// fails to compile or produces an error-severity finding (an exceeded
// device limit), and 0 otherwise, in both output modes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gles2gpgpu/internal/glsl"
	"gles2gpgpu/internal/shader"
	"gles2gpgpu/internal/shader/analysis"
)

type defineFlags map[string]string

func (d defineFlags) String() string { return "" }

func (d defineFlags) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok {
		val = "1"
	}
	d[name] = val
	return nil
}

// jsonFinding is one diagnostic in the -json document.
type jsonFinding struct {
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
	Msg      string `json:"msg"`
}

// jsonFile is one linted source in the -json document.
type jsonFile struct {
	File     string        `json:"file"`
	OK       bool          `json:"ok"`
	Error    string        `json:"error,omitempty"`
	Findings []jsonFinding `json:"findings"`
}

// jsonReport is the whole -json document.
type jsonReport struct {
	Schema string     `json:"schema"`
	Files  []jsonFile `json:"files"`
}

const jsonSchema = "gles2gpgpu.glslint/1"

func main() {
	stage := flag.String("stage", "fragment", "shader stage: fragment or vertex")
	limits := flag.String("limits", "all", "device profiles for the limit section: vc4, sgx, generic, all or none")
	info := flag.Bool("info", true, "print info-severity findings (limit headroom, eligibility notes)")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON document instead of text")
	defines := defineFlags{}
	flag.Var(defines, "D", "preprocessor define NAME=VALUE (repeatable)")
	flag.Parse()

	st := glsl.StageFragment
	if *stage == "vertex" {
		st = glsl.StageVertex
	} else if *stage != "fragment" {
		fmt.Fprintf(os.Stderr, "glslint: unknown stage %q\n", *stage)
		os.Exit(2)
	}
	var profiles []analysis.LimitProfile
	switch *limits {
	case "none":
	case "all":
		profiles = analysis.LimitProfiles()
	default:
		lp, ok := analysis.LimitProfileFor(*limits)
		if !ok {
			fmt.Fprintf(os.Stderr, "glslint: unknown limits profile %q\n", *limits)
			os.Exit(2)
		}
		profiles = []analysis.LimitProfile{lp}
	}

	exit := 0
	report := jsonReport{Schema: jsonSchema}
	lintOne := func(name string, src []byte) {
		jf := jsonFile{File: name, OK: true, Findings: []jsonFinding{}}
		prog, err := compile(string(src), st, defines)
		if err != nil {
			exit = 1
			if *jsonOut {
				jf.OK = false
				jf.Error = err.Error()
				report.Files = append(report.Files, jf)
			} else {
				fmt.Printf("%s: %v\n", name, err)
			}
			return
		}
		for _, f := range analysis.Lint(prog, profiles) {
			if f.Sev == analysis.SevInfo && !*info {
				continue
			}
			if f.Sev == analysis.SevError {
				exit = 1
			}
			if *jsonOut {
				jf.Findings = append(jf.Findings, jsonFinding{
					Code:     f.Code,
					Severity: f.Sev.String(),
					Line:     f.Pos.Line,
					Col:      f.Pos.Col,
					Msg:      f.Msg,
				})
			} else {
				fmt.Printf("%s:%s\n", name, f)
			}
		}
		if *jsonOut {
			report.Files = append(report.Files, jf)
		}
	}

	if flag.NArg() == 0 {
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "glslint: %v\n", err)
			os.Exit(1)
		}
		lintOne("<stdin>", src)
	}
	for _, name := range flag.Args() {
		src, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "glslint: %v\n", err)
			exit = 1
			continue
		}
		lintOne(name, src)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "glslint: %v\n", err)
			os.Exit(1)
		}
	}
	os.Exit(exit)
}

// compile runs the front end and back end on one source.
func compile(src string, st glsl.ShaderStage, defines map[string]string) (*shader.Program, error) {
	cs, err := glsl.Frontend(src, glsl.CompileOptions{Stage: st, Defines: defines})
	if err != nil {
		return nil, err
	}
	return shader.Compile(cs)
}
