// Command glslc is a standalone offline compiler for the simulator's GLSL
// ES 1.00 dialect: it runs the full front end and back end, prints the IR
// disassembly, static statistics and cycle estimates, and checks the shader
// against a device profile's implementation limits (the check that rejects
// the paper's block-32 sgemm kernels).
//
// Usage:
//
//	glslc [-stage fragment|vertex] [-device vc4|sgx|generic]
//	      [-D NAME=VALUE]... [-cycles] [-lint] [-passes]
//	      [-limits vc4|sgx|generic|all] file.glsl
//
// With no file, the source is read from standard input.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gles2gpgpu/internal/device"
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

func main() {
	stage := flag.String("stage", "fragment", "shader stage: fragment or vertex")
	dev := flag.String("device", "generic", "device profile for limits and cycle costs: vc4, sgx or generic")
	cycles := flag.Bool("cycles", true, "print the static cycle estimate")
	lint := flag.Bool("lint", false, "run the static-analysis diagnostics (same rules as glslint)")
	passes := flag.Bool("passes", false, "run the host optimisation passes and report what they did")
	limits := flag.String("limits", "", "check dataflow-derived resource usage against a device profile: vc4, sgx, generic or all")
	defines := defineFlags{}
	flag.Var(defines, "D", "preprocessor define NAME=VALUE (repeatable)")
	flag.Parse()

	var src []byte
	var err error
	switch flag.NArg() {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		src, err = os.ReadFile(flag.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "glslc: at most one input file")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "glslc: %v\n", err)
		os.Exit(1)
	}

	st := glsl.StageFragment
	if *stage == "vertex" {
		st = glsl.StageVertex
	} else if *stage != "fragment" {
		fmt.Fprintf(os.Stderr, "glslc: unknown stage %q\n", *stage)
		os.Exit(2)
	}
	var prof *device.Profile
	switch *dev {
	case "vc4":
		prof = device.VideoCoreIV()
	case "sgx":
		prof = device.PowerVRSGX545()
	case "generic":
		prof = device.Generic()
	default:
		fmt.Fprintf(os.Stderr, "glslc: unknown device %q\n", *dev)
		os.Exit(2)
	}

	cs, err := glsl.Frontend(string(src), glsl.CompileOptions{Stage: st, Defines: defines})
	if err != nil {
		fmt.Fprintf(os.Stderr, "glslc: %v\n", err)
		os.Exit(1)
	}
	prog, err := shader.Compile(cs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "glslc: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(prog.Disassemble())
	if *cycles {
		fmt.Printf("; static cycles per invocation on %s: %d\n",
			prof.Name, prof.CostModel.StaticCycles(prog))
	}
	if err := prog.CheckLimits(prof.Limits); err != nil {
		fmt.Fprintf(os.Stderr, "glslc: %s: %v\n", prof.Name, err)
		os.Exit(1)
	}
	fmt.Printf("; within %s implementation limits\n", prof.Name)

	name := "<stdin>"
	if flag.NArg() == 1 {
		name = flag.Arg(0)
	}
	var profiles []analysis.LimitProfile
	if *limits != "" {
		if *limits == "all" {
			profiles = analysis.LimitProfiles()
		} else {
			lp, ok := analysis.LimitProfileFor(*limits)
			if !ok {
				fmt.Fprintf(os.Stderr, "glslc: unknown limits profile %q\n", *limits)
				os.Exit(2)
			}
			profiles = []analysis.LimitProfile{lp}
		}
	}
	failed := false
	if *passes {
		if o := analysis.Optimize(prog); o != nil {
			fmt.Printf("; passes: %d dead instructions, %d operands folded to constants, %d copies propagated\n",
				o.DeadInsts, o.FoldedConsts, o.PropagatedSrcs)
		} else {
			fmt.Println("; passes: empty program, nothing to do")
		}
	}
	if *limits != "" {
		res := analysis.CountResources(analysis.BuildCFG(prog))
		exact := "longest path"
		if !res.PathExact {
			exact = "static count (cyclic control flow)"
		}
		fmt.Printf("; resources: %d instructions, %d texture accesses (%s: %d/%d), dependent-read depth %d, temp pressure %d\n",
			res.StaticInsts, res.StaticTex, exact, res.PathInsts, res.PathTex, res.DepTexDepth, res.TempPressure)
		for _, lp := range profiles {
			for _, f := range analysis.CheckLimits(prog, res, lp) {
				fmt.Printf("%s: %s: %s\n", name, lp.Name, f)
				if f.Sev == analysis.SevError {
					failed = true
				}
			}
		}
	}
	if *lint {
		for _, f := range analysis.Lint(prog, profiles) {
			fmt.Printf("%s:%s\n", name, f)
			if f.Sev == analysis.SevError {
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
