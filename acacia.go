// Package acacia is the public face of the ACACIA reproduction: a
// context-aware mobile edge computing (MEC) framework for continuous
// interactive applications over LTE networks, after Cho et al., "ACACIA:
// Context-aware Edge Computing for Continuous Interactive Applications over
// Mobile Networks" (CoNEXT 2016).
//
// The package re-exports the simulation testbed, the ACACIA service
// components (device manager, MEC registration server, localization
// manager, AR application pair) and the experiment harness that regenerates
// every figure and table of the paper's evaluation. The heavy lifting lives
// in the internal packages:
//
//	internal/sim           deterministic discrete-event engine
//	internal/netsim        links, queues, routers, hosts, transports
//	internal/pkt           GTP-U/GTPv2-C/S1AP/OpenFlow/TFT wire encodings
//	internal/epc           UE, eNodeB, MME, HSS, PCRF, split gateways
//	internal/sdn           OVS-style GW-U switches + OpenFlow controller
//	internal/d2d           LTE-direct proximity discovery + radio channel
//	internal/localization  path-loss regression + trilateration
//	internal/vision        SURF-style features, matcher, geo-tagged DB
//	internal/compute       calibrated device models + PS compute server
//	internal/media         camera, compression models, block-DCT codec
//	internal/core          ACACIA itself + the wired testbed
//	internal/experiments   per-figure experiment runners
//
// Quick start:
//
//	tb := acacia.NewTestbed(acacia.TestbedConfig{})
//	ue := tb.UEs[0]
//	if err := tb.Attach(ue); err != nil { ... }
//	if err := tb.StartRetailApp(ue, "electronics"); err != nil { ... }
//	tb.Run(30 * time.Second)
//	fmt.Println(ue.Frontend.Stats.Total.Mean()) // mean end-to-end latency, ms
package acacia

import (
	"acacia/internal/core"
	"acacia/internal/experiments"
	"acacia/internal/fault"
	"acacia/internal/telemetry"
)

// Testbed is the fully wired ACACIA environment: UEs with LTE-direct
// radios behind an eNodeB, a split EPC with central and edge gateway user
// planes, cloud and edge AR servers, the MRS, and the retail-store floor
// with its landmark publishers.
type Testbed = core.Testbed

// TestbedConfig parameterizes NewTestbed; the zero value selects the
// calibrated defaults matching the paper's environment.
type TestbedConfig = core.TestbedConfig

// UEBundle groups one customer device: its UE (EPC side), LTE-direct
// device, ACACIA device manager and AR front-end.
type UEBundle = core.UEBundle

// Scheme selects the AR back-end's search-space strategy.
type Scheme = core.Scheme

// Search-space schemes (§7.3): the full system, the coarse rxPower
// baseline, and the unpruned Naive baseline.
const (
	SchemeACACIA  = core.SchemeACACIA
	SchemeRxPower = core.SchemeRxPower
	SchemeNaive   = core.SchemeNaive
)

// DeviceManager is the on-device ACACIA daemon.
type DeviceManager = core.DeviceManager

// MRS is the MEC registration server (the 3GPP application function that
// converts connectivity requests into dedicated-bearer activations).
type MRS = core.MRS

// ServiceInfo describes a CI application's interest registration.
type ServiceInfo = core.ServiceInfo

// CIApp is the callback interface CI applications implement.
type CIApp = core.CIApp

// ARFrontend and ARBackend are the AR application pair.
type (
	ARFrontend = core.ARFrontend
	ARBackend  = core.ARBackend
)

// RetailServiceName is the LTE-direct service of the built-in retail
// deployment.
const RetailServiceName = core.RetailServiceName

// NewTestbed builds the standard topology. See core.TestbedConfig for every
// knob; the zero value reproduces the paper's calibrated environment.
func NewTestbed(cfg TestbedConfig) *Testbed { return core.NewTestbed(cfg) }

// EdgeSiteBundle groups one edge site's pieces (user-plane switches, CI
// server, AR backend). Testbed.AddEdgeSite deploys additional sites as
// failover candidates; Testbed.EnableFailover arms GTP-U path supervision
// and MRS-driven recovery across all of them.
type EdgeSiteBundle = core.SiteBundle

// FaultInjector applies deterministic fault plans to a testbed's
// registered links, nodes and edge sites (Testbed.Faults).
type FaultInjector = fault.Injector

// FaultPlan is a declarative, virtual-clock-driven fault schedule.
type FaultPlan = fault.Plan

// FaultEvent is one scheduled fault of a FaultPlan.
type FaultEvent = fault.Event

// Fault kinds a FaultPlan can schedule.
const (
	FaultLinkDown  = fault.LinkDown
	FaultLinkLoss  = fault.LinkLoss
	FaultSiteCrash = fault.SiteCrash
)

// ExperimentResult is one experiment's rendered tables and notes.
type ExperimentResult = experiments.Result

// MetricsSnapshot is a deterministic point-in-time view of an engine's
// telemetry registry: metrics sorted by scoped name plus the timeline of
// emitted events in virtual-time order. ExperimentResult.Metrics holds the
// per-trial snapshots merged in trial declaration order.
type MetricsSnapshot = telemetry.Snapshot

// MergeMetrics combines snapshots into one fleet-wide view: counters and
// gauges sum, histogram bounds combine, and timelines interleave by virtual
// time. Nil snapshots are skipped.
func MergeMetrics(snaps ...*MetricsSnapshot) *MetricsSnapshot {
	return telemetry.MergeSnapshots(snaps...)
}

// ExperimentOptions tunes experiment execution: Full selects
// publication-length runs, Seed/SeedSet pick the base simulation seed, and
// Parallel bounds how many trials run concurrently (output is
// byte-identical at every setting).
type ExperimentOptions = experiments.Options

// ExperimentIDs lists every reproducible figure/table id in presentation
// order ("3a".."3h", "overhead", "6", "8", "9", "10a", "10b",
// "compression", "11a", "11b", "12", "13", and the ablations).
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentTitle returns the human-readable title for an experiment id.
func ExperimentTitle(id string) string { return experiments.Title(id) }

// RunExperiment regenerates one figure or table by id.
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentResult, error) {
	return experiments.Run(id, opts)
}

// RunAllExperiments regenerates every figure and table in order.
// Experiments whose trials failed are omitted from the results and their
// errors joined into err; the returned results are still valid.
func RunAllExperiments(opts ExperimentOptions) ([]*ExperimentResult, error) {
	return experiments.RunAll(opts)
}

// ScaleConfig shapes the generated metro-scale scenario: the site/eNB grid,
// the UE population and its arrival profile, per-site admission capacity,
// and the frame-loop timing (Workers is ignored).
type ScaleConfig = experiments.ScaleConfig

// DefaultScaleConfig returns the preset metro shapes: quick (test-sized)
// or full (the >= 10,000 UE / >= 12 site acceptance scenario).
func DefaultScaleConfig(full bool) ScaleConfig { return experiments.DefaultScaleConfig(full) }

// RunScaleScenario runs the metro-scale scenario once with the given shape
// (the acacia-sim -scale entry point). Zero-valued config fields take the
// quick-shape defaults.
func RunScaleScenario(seed uint64, cfg ScaleConfig) *ExperimentResult {
	return experiments.RunScaleScenario(seed, cfg)
}
