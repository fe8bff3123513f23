// Package letgo is the public API of the LetGo reproduction: a framework
// that continues HPC applications through crash-causing errors instead of
// terminating them (Fang et al., "LetGo: A Lightweight Continuous
// Framework for HPC Applications Under Failures", HPDC 2017).
//
// The package re-exports the full stack:
//
//   - Compiling workloads: Compile (MiniC) and Assemble (assembly) produce
//     Program images; NewMachine loads them onto the simulated CPU.
//   - Running under LetGo: Attach wires the monitor/modifier onto a
//     machine; Run drives it to completion, eliding crashes per the
//     configured Options (LetGo-B or LetGo-E).
//   - Fault injection: Campaign runs the paper's single-bit-flip
//     methodology against a benchmark App and classifies every outcome
//     (Figure 4 taxonomy, Section 5.3 metrics).
//   - C/R modelling: CRParams, SimulateStandard and SimulateLetGo evaluate
//     long-running checkpoint/restart efficiency with and without LetGo
//     (Section 7); Figure7 and Figure8 regenerate the paper's sweeps.
//
// See the examples directory for end-to-end usage.
package letgo

import (
	"fmt"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/asm"
	"github.com/letgo-hpc/letgo/internal/checkpoint"
	"github.com/letgo-hpc/letgo/internal/cluster"
	"github.com/letgo-hpc/letgo/internal/core"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/lang"
	"github.com/letgo-hpc/letgo/internal/outcome"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/resilience"
	"github.com/letgo-hpc/letgo/internal/stats"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// Program is a loadable program image for the simulated machine.
type Program = isa.Program

// Machine is the simulated CPU with its loaded program and memory.
type Machine = vm.Machine

// MachineConfig configures machine construction.
type MachineConfig = vm.Config

// Signal is an OS-style signal raised by a machine exception.
type Signal = vm.Signal

// Crash-causing signals (the paper's Table 1 set plus SIGFPE).
const (
	SIGSEGV = vm.SIGSEGV
	SIGBUS  = vm.SIGBUS
	SIGABRT = vm.SIGABRT
	SIGFPE  = vm.SIGFPE
)

// Compile compiles MiniC source into a program image.
func Compile(src string) (*Program, error) { return lang.Compile(src) }

// CompileToAsm compiles MiniC source to assembly text.
func CompileToAsm(src string) (string, error) { return lang.CompileToAsm(src) }

// Assemble assembles assembly text into a program image.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// Disassemble renders a program image as readable assembly.
func Disassemble(p *Program) string { return asm.Disassemble(p) }

// NewMachine loads a program onto a fresh machine.
func NewMachine(p *Program, cfg MachineConfig) (*Machine, error) { return vm.New(p, cfg) }

// Options configures the LetGo runtime (mode, signal set, heuristics).
type Options = core.Options

// Runner supervises one application run under LetGo.
type Runner = core.Runner

// RunResult summarizes a supervised run.
type RunResult = core.Result

// LetGo repair modes.
const (
	ModeBasic    = core.ModeBasic    // LetGo-B: advance the PC only
	ModeEnhanced = core.ModeEnhanced // LetGo-E: PC advance + Heuristics I & II
)

// Run outcomes.
const (
	RunCompleted = core.RunCompleted
	RunCrashed   = core.RunCrashed
	RunHang      = core.RunHang
)

// Attach wires LetGo onto a machine: it installs the Table-1 signal
// dispositions and returns a Runner whose Run elides crashes.
func Attach(m *Machine, opts Options) *Runner {
	return core.Attach(m, pin.Analyze(m.Prog), opts)
}

// Run is the one-call convenience: load prog, attach LetGo with opts, and
// run to an end state within maxInstrs retired instructions.
func Run(prog *Program, opts Options, maxInstrs uint64) (RunResult, *Machine, error) {
	m, err := vm.New(prog, vm.Config{})
	if err != nil {
		return RunResult{}, nil, err
	}
	r := Attach(m, opts)
	return r.Run(maxInstrs), m, nil
}

// App is one benchmark application (Table 2).
type App = apps.App

// Apps returns the six benchmark applications in Table-2 order.
func Apps() []*App { return apps.All() }

// IterativeApps returns the five convergence-based benchmarks (HPL, a
// direct method, is evaluated separately, as in the paper's Section 8).
func IterativeApps() []*App { return apps.Iterative() }

// AppByName finds a benchmark application.
func AppByName(name string) (*App, bool) { return apps.ByName(name) }

// ExtensionApps returns workloads beyond the paper's Table-2 suite
// (currently the AMG solver with convergence-based termination).
func ExtensionApps() []*App { return apps.Extensions() }

// Campaign is a fault-injection campaign (Section 5.4 methodology).
type Campaign = inject.Campaign

// CampaignResult summarizes a campaign: outcome counts (Figure 4),
// metrics (Section 5.3) and crash statistics.
type CampaignResult = inject.Result

// InjectionMode selects the supervision regime for injected runs.
type InjectionMode = inject.Mode

// Injection modes.
const (
	NoLetGo = inject.NoLetGo
	LetGoB  = inject.LetGoB
	LetGoE  = inject.LetGoE
)

// CampaignEngine selects the execution substrate for injected runs. Both
// engines produce byte-identical results for a fixed seed; the default
// fork-replay engine shares the golden prefix through COW forks instead
// of re-running every injection from PC 0.
type CampaignEngine = inject.Engine

// Campaign engines.
const (
	EngineFork  = inject.EngineFork
	EngineRerun = inject.EngineRerun
)

// Outcome classes (Figure 4 taxonomy).
type OutcomeClass = outcome.Class

// Outcome classes. CHang and HarnessFault are harness-quarantine
// classes: they mark injections the campaign supervisor gave up on (a
// per-injection watchdog expiry, a twice-panicking worker) rather than
// observed program behavior, and are never produced by classification
// itself.
const (
	Benign       = outcome.Benign
	SDC          = outcome.SDC
	Detected     = outcome.Detected
	Crash        = outcome.Crash
	DoubleCrash  = outcome.DoubleCrash
	CBenign      = outcome.CBenign
	CSDC         = outcome.CSDC
	CDetected    = outcome.CDetected
	Hang         = outcome.Hang
	CHang        = outcome.CHang
	HarnessFault = outcome.HarnessFault
)

// CampaignJournal is the append-only resume journal a Campaign can
// persist its classified injections into (Campaign.Journal): campaigns
// killed mid-run resume from it byte-identically. NewCampaignJournal
// starts a fresh journal; OpenCampaignJournal loads one for resuming (a
// missing file yields an empty journal).
type CampaignJournal = resilience.Journal

// NewCampaignJournal creates (or truncates) a resume journal at path.
func NewCampaignJournal(path string) (*CampaignJournal, error) { return resilience.Create(path) }

// OpenCampaignJournal loads an existing resume journal for resuming.
func OpenCampaignJournal(path string) (*CampaignJournal, error) { return resilience.Open(path) }

// Metrics are the Section-5.3 effectiveness metrics.
type Metrics = outcome.Metrics

// CRParams is the Table-4 parameter set of the C/R model.
type CRParams = checkpoint.Params

// CRResult aggregates one C/R simulation.
type CRResult = checkpoint.Result

// AppProbabilities seeds the C/R model for one application.
type AppProbabilities = checkpoint.AppProbabilities

// RNG is the deterministic random source used by campaigns and models.
type RNG = stats.RNG

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// SimulateStandard runs the M-S (no LetGo) C/R state machine.
func SimulateStandard(p CRParams, rng *RNG, horizon float64) (CRResult, error) {
	return checkpoint.Simulate(p, rng, horizon, false, nil)
}

// SimulateLetGo runs the M-L (with LetGo) C/R state machine.
func SimulateLetGo(p CRParams, rng *RNG, horizon float64) (CRResult, error) {
	return checkpoint.Simulate(p, rng, horizon, true, nil)
}

// PaperApps returns the C/R probabilities derived from the paper's own
// Table 3, for regenerating the published Figures 7 and 8.
func PaperApps() []AppProbabilities { return checkpoint.PaperApps() }

// PaperAppByName finds paper-derived probabilities by benchmark name
// (the five iterative apps plus HPL).
func PaperAppByName(name string) (AppProbabilities, bool) {
	return checkpoint.PaperAppByName(name)
}

// CRParamsFor assembles Table-4 parameters from app probabilities and a
// system configuration.
func CRParamsFor(app AppProbabilities, tchk, syncFrac, mtbFaults float64) CRParams {
	return checkpoint.ParamsFor(app, tchk, syncFrac, mtbFaults)
}

// ProbabilitiesFromCampaign derives the C/R model inputs (P_crash, P_v,
// P_v', continuability) from a measured fault-injection campaign — the
// paper's pipeline from Section 6 results into the Section 7 model. The
// no-LetGo estimates come from the Finished branch; the LetGo estimates
// need a campaign run with LetGo enabled.
func ProbabilitiesFromCampaign(r *CampaignResult) (AppProbabilities, error) {
	if r == nil || r.Counts.N == 0 {
		return AppProbabilities{}, fmt.Errorf("letgo: empty campaign result")
	}
	c := &r.Counts
	p := AppProbabilities{Name: r.App, PCrash: r.PCrash}
	finished := c.By[Benign] + c.By[SDC] + c.By[Detected]
	if finished > 0 {
		p.PV = float64(c.By[Benign]+c.By[SDC]) / float64(finished)
	}
	continued := c.By[CBenign] + c.By[CSDC] + c.By[CDetected]
	if continued > 0 {
		p.PVPrime = float64(c.By[CBenign]+c.By[CSDC]) / float64(continued)
		p.ContinuedSDC = float64(c.By[CSDC]) / float64(continued)
	}
	p.PLetGo = r.Metrics.Continuability
	return p, nil
}

// Figure7 regenerates the paper's Figure 7 sweep for one app.
func Figure7(app AppProbabilities, seed uint64) ([]checkpoint.Point, error) {
	return checkpoint.Figure7(app, seed)
}

// Figure8 regenerates the paper's Figure 8 sweep for one app.
func Figure8(app AppProbabilities, tchk float64, seed uint64) ([]checkpoint.Point, error) {
	return checkpoint.Figure8(app, tchk, seed)
}

// CRPoint is one (x, efficiency-pair) sample of a figure series.
type CRPoint = checkpoint.Point

// FaultModel selects the injected corruption pattern (single-bit is the
// paper's model; the multi-bit models realize the Section-8 ECC-escape
// discussion).
type FaultModel = inject.FaultModel

// Fault models.
const (
	SingleBit = inject.SingleBit
	DoubleBit = inject.DoubleBit
	ByteBurst = inject.ByteBurst
)

// ClusterConfig describes a coordinated multi-rank C/R job on real
// simulated machines (the Section-8 "towards large-scale application"
// extension): lockstep ranks, snapshot checkpoints, actual rollbacks, and
// optional per-rank LetGo supervision.
type ClusterConfig = cluster.Config

// ClusterResult summarizes a coordinated job.
type ClusterResult = cluster.Result

// RunCluster executes a coordinated multi-rank job.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) { return cluster.Run(cfg) }

// Advice is the operator recommendation on enabling LetGo for a given
// application and deployment (the paper's Section-8 "determining when/how
// to use LetGo" decision).
type Advice = checkpoint.Advice

// AdviseConfig carries the operator's decision inputs (SDC budget,
// minimum worthwhile gain, measured Continued_SDC).
type AdviseConfig = checkpoint.AdviseConfig

// Advise simulates both C/R arms and recommends whether to enable LetGo.
func Advise(p CRParams, cfg AdviseConfig) (Advice, error) {
	return checkpoint.Advise(p, cfg)
}
