// Package coconutbench hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation section (§5), plus ablation
// benches for the design choices called out in DESIGN.md.
//
// Each Benchmark* function executes the corresponding experiment once per
// b.N iteration (macro-benchmarks: an iteration is a full COCONUT run) and
// reports MTPS/MFLS as custom metrics. The benches run a shortened sending
// window (150 paper-seconds at scale 1/100); `cmd/coconut-sweep` runs the
// full 300-second, 3-repetition grids and writes EXPERIMENTS.md-style
// reports.
package coconutbench

import (
	"context"
	"strconv"
	"testing"
	"time"

	"github.com/coconut-bench/coconut/internal/chain"
	"github.com/coconut-bench/coconut/internal/clock"
	"github.com/coconut-bench/coconut/internal/coconut"
	"github.com/coconut-bench/coconut/internal/consensus/notary"
	"github.com/coconut-bench/coconut/internal/crypto"
	"github.com/coconut-bench/coconut/internal/experiments"
	"github.com/coconut-bench/coconut/internal/iel"
	"github.com/coconut-bench/coconut/internal/mempool"
	"github.com/coconut-bench/coconut/internal/systems"
	"github.com/coconut-bench/coconut/internal/systems/corda"
	"github.com/coconut-bench/coconut/internal/systems/fabric"
	"github.com/coconut-bench/coconut/internal/systems/quorum"
)

// benchOptions is the shared scaled configuration for all benches.
func benchOptions() experiments.Options {
	return experiments.Options{
		Scale:        0.01,
		SendSeconds:  150,
		GraceSeconds: 30,
		Repetitions:  1,
		Seed:         42,
	}
}

// reportCell publishes a cell's metrics on the bench.
func reportCell(b *testing.B, res coconut.Result, paperMTPS float64) {
	b.Helper()
	b.ReportMetric(res.MTPS.Mean, "MTPS")
	b.ReportMetric(paperMTPS, "paperMTPS")
	b.ReportMetric(res.Received.Mean, "receivedNoT")
	b.ReportMetric(res.Expected.Mean, "expectedNoT")
}

// runCellBench runs one (system, benchmark) cell b.N times.
func runCellBench(b *testing.B, system string, bench coconut.BenchmarkName) {
	b.Helper()
	cell, ok := experiments.BestCell(system, bench)
	if !ok {
		b.Fatalf("no Figure 3 cell for %s/%s", system, bench)
	}
	var last coconut.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCell(system, bench, cell.Params, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportCell(b, last, cell.MTPS)
}

// --- Figure 3: best MTPS heat map (7 systems x 6 benchmarks) ---

func BenchmarkFigure3(b *testing.B) {
	for _, system := range experiments.AllSystems {
		system := system
		b.Run(sanitize(system), func(b *testing.B) {
			for _, bench := range coconut.AllBenchmarks {
				bench := bench
				b.Run(string(bench), func(b *testing.B) {
					runCellBench(b, system, bench)
				})
			}
		})
	}
}

// --- Figure 4: the same grid under emulated network latency ---

func BenchmarkFigure4(b *testing.B) {
	for _, system := range experiments.AllSystems {
		system := system
		b.Run(sanitize(system), func(b *testing.B) {
			for _, bench := range coconut.AllBenchmarks {
				bench := bench
				b.Run(string(bench), func(b *testing.B) {
					cell, _ := experiments.BestCell(system, bench)
					opts := benchOptions()
					opts.Netem = true
					var last coconut.Result
					for i := 0; i < b.N; i++ {
						res, err := experiments.RunCell(system, bench, cell.Params, opts)
						if err != nil {
							b.Fatal(err)
						}
						last = res
					}
					reportCell(b, last, experiments.Figure4MTPS[system][bench])
				})
			}
		})
	}
}

// --- Figure 5: scalability (DoNothing at 4/8/16/32 nodes) ---

func BenchmarkFigure5(b *testing.B) {
	for _, system := range experiments.AllSystems {
		system := system
		cell, _ := experiments.BestCell(system, coconut.BenchDoNothing)
		for _, nodes := range experiments.Figure5Nodes {
			nodes := nodes
			b.Run(sanitize(system)+"/nodes="+strconv.Itoa(nodes), func(b *testing.B) {
				opts := benchOptions()
				opts.Nodes = nodes
				var last coconut.Result
				for i := 0; i < b.N; i++ {
					res, err := experiments.RunCell(system, coconut.BenchDoNothing, cell.Params, opts)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.MTPS.Mean, "MTPS")
			})
		}
	}
}

// --- Tables 7-20 ---

func runTableBench(b *testing.B, id string) {
	b.Helper()
	tbl, ok := experiments.TableByID(id)
	if !ok {
		b.Fatalf("unknown table %s", id)
	}
	for ri, row := range tbl.Rows {
		row := row
		b.Run("row"+strconv.Itoa(ri), func(b *testing.B) {
			var last coconut.Result
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunCell(tbl.System, tbl.Benchmark, row.Params, benchOptions())
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportCell(b, last, row.PaperMTPS)
		})
	}
}

func BenchmarkTableCordaOS(b *testing.B)         { runTableBench(b, "7+8") }
func BenchmarkTableCordaEnterprise(b *testing.B) { runTableBench(b, "9+10") }
func BenchmarkTableBitShares(b *testing.B)       { runTableBench(b, "11+12") }
func BenchmarkTableFabric(b *testing.B)          { runTableBench(b, "13+14") }
func BenchmarkTableQuorum(b *testing.B)          { runTableBench(b, "15+16") }
func BenchmarkTableSawtooth(b *testing.B)        { runTableBench(b, "17+18") }
func BenchmarkTableDiem(b *testing.B)            { runTableBench(b, "19+20") }

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationAdmission contrasts the two admission disciplines:
// bounded-reject (Sawtooth) vs unbounded-stall (Quorum livelock).
func BenchmarkAblationAdmission(b *testing.B) {
	b.Run("bounded-reject", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool := mempool.NewBounded[int](64)
			rejected := 0
			for j := 0; j < 10000; j++ {
				if err := pool.Add(j); err != nil {
					rejected++
					pool.Take(16)
				}
			}
			b.ReportMetric(float64(rejected), "rejected")
		}
	})
	b.Run("unbounded-stall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool := mempool.NewUnbounded[int]()
			for j := 0; j < 10000; j++ {
				_ = pool.Add(j)
			}
			b.ReportMetric(float64(pool.Len()), "backlog")
		}
	})
}

// BenchmarkAblationBatching compares single-op transactions, multi-op
// transactions (BitShares) and atomic batches (Sawtooth) on throughput per
// payload at the data-structure level.
func BenchmarkAblationBatching(b *testing.B) {
	const payloads = 1000
	b.Run("single-op-txs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < payloads; j++ {
				tx := chain.NewSingleOp("c", uint64(j), iel.DoNothingName, iel.FnDoNothing)
				_ = tx.Verify()
			}
		}
	})
	b.Run("multi-op-tx-100", func(b *testing.B) {
		ops := make([]chain.Operation, 100)
		for i := range ops {
			ops[i] = chain.Operation{IEL: iel.DoNothingName, Function: iel.FnDoNothing}
		}
		for i := 0; i < b.N; i++ {
			for j := 0; j < payloads/100; j++ {
				tx := chain.NewTransaction("c", uint64(j), ops...)
				_ = tx.Verify()
			}
		}
	})
	b.Run("batch-100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < payloads/100; j++ {
				txs := make([]*chain.Transaction, 100)
				for k := range txs {
					txs[k] = chain.NewSingleOp("c", uint64(j*100+k), iel.DoNothingName, iel.FnDoNothing)
				}
				_ = chain.NewBatch(txs...)
			}
		}
	})
}

// BenchmarkAblationSigning measures serial (Corda OS) vs parallel (Corda
// Enterprise) signature collection latency across 4..32 parties.
func BenchmarkAblationSigning(b *testing.B) {
	delay := 500 * time.Microsecond
	sign := func(_ clock.Handle, party string, _ crypto.Hash) (crypto.Signature, error) {
		time.Sleep(delay)
		return crypto.Signature{Signer: party}, nil
	}
	for _, parties := range []int{4, 8, 16, 32} {
		names := make([]string, parties)
		for i := range names {
			names[i] = "node-" + strconv.Itoa(i)
		}
		b.Run("serial/"+strconv.Itoa(parties), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := notary.CollectSignatures(clock.New(), clock.Handle{}, notary.Serial, names, crypto.SumString("tx"), sign); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("parallel/"+strconv.Itoa(parties), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := notary.CollectSignatures(clock.New(), clock.Handle{}, notary.Parallel, names, crypto.SumString("tx"), sign); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationConsensus runs the same DoNothing load through every
// consensus family at an equal block budget, isolating the ordering layer's
// contribution to throughput.
func BenchmarkAblationConsensus(b *testing.B) {
	opts := benchOptions()
	opts.SendSeconds = 100
	cells := map[string]experiments.Params{
		systems.NameFabric:    {RL: 800, MM: 500},  // Raft
		systems.NameQuorum:    {RL: 800, BP: 5},    // IBFT
		systems.NameBitShares: {RL: 800, BI: 1},    // DPoS
		systems.NameSawtooth:  {RL: 800, PD: 1},    // PBFT
		systems.NameDiem:      {RL: 800, BS: 2000}, // DiemBFT
	}
	for system, params := range cells {
		system, params := system, params
		b.Run(sanitize(system), func(b *testing.B) {
			var last coconut.Result
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunCell(system, coconut.BenchDoNothing, params, opts)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.MTPS.Mean, "MTPS")
		})
	}
}

// BenchmarkAblationEndToEnd quantifies the paper's central methodological
// claim: node-side measurement (count commits on the first node) overstates
// what clients actually confirm end to end (all nodes + notification).
func BenchmarkAblationEndToEnd(b *testing.B) {
	run := func(b *testing.B, newDriver func(clk clock.Clock) systems.Driver) (nodeSide, endToEnd float64) {
		b.Helper()
		res, err := coconut.Run(coconut.RunConfig{
			SystemName:      "ablation",
			NewDriver:       newDriver,
			Unit:            []coconut.BenchmarkName{coconut.BenchDoNothing},
			Clients:         2,
			RateLimit:       200,
			WorkloadThreads: 4,
			SendDuration:    500 * time.Millisecond,
			ListenGrace:     200 * time.Millisecond,
			Repetitions:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res[0].Expected.Mean, res[0].Received.Mean
	}
	b.Run("fabric", func(b *testing.B) {
		var sent, confirmed float64
		for i := 0; i < b.N; i++ {
			sent, confirmed = run(b, func(clk clock.Clock) systems.Driver {
				return fabric.New(fabric.Config{MaxMessageCount: 20, BatchTimeout: 20 * time.Millisecond})
			})
		}
		b.ReportMetric(sent, "submitted")
		b.ReportMetric(confirmed, "confirmedEndToEnd")
	})
	b.Run("quorum", func(b *testing.B) {
		var sent, confirmed float64
		for i := 0; i < b.N; i++ {
			sent, confirmed = run(b, func(clk clock.Clock) systems.Driver {
				return quorum.New(quorum.Config{BlockPeriod: 20 * time.Millisecond})
			})
		}
		b.ReportMetric(sent, "submitted")
		b.ReportMetric(confirmed, "confirmedEndToEnd")
	})
}

// BenchmarkContentionMacro runs the contention workload plane end to end:
// the Zipfian-skewed SmallBank family and the hotspot YCSB-A mix against
// the systems whose conflict modes differ most (Fabric's MVCC validation
// vs. Quorum's order-execute semantic aborts), reporting goodput and abort
// rate alongside raw MTPS. CI records these in BENCH_4.json so the
// goodput-vs-throughput gap is tracked across PRs like the MTPS trajectory.
func BenchmarkContentionMacro(b *testing.B) {
	opts := benchOptions()
	opts.SendSeconds = 100
	cells := []struct {
		system, mix, skew string
	}{
		{systems.NameFabric, "smallbank", "zipfian"},
		{systems.NameQuorum, "smallbank", "zipfian"},
		{systems.NameFabric, "ycsb-a", "hotspot"},
	}
	for _, cell := range cells {
		cell := cell
		b.Run(sanitize(cell.system)+"/"+cell.mix+"/"+cell.skew, func(b *testing.B) {
			sc := experiments.NewContentionScenario([]string{cell.mix}, []string{cell.skew}, 0)
			sc.Systems = []string{cell.system}
			var last coconut.Result
			for i := 0; i < b.N; i++ {
				outcome, err := experiments.Run(context.Background(), sc, opts)
				if err != nil {
					b.Fatal(err)
				}
				last = outcome.Rows[0].Result
			}
			b.ReportMetric(last.MTPS.Mean, "MTPS")
			b.ReportMetric(last.Goodput.Mean, "goodput")
			b.ReportMetric(100*last.AbortRate.Mean, "abortPct")
			b.ReportMetric(last.Received.Mean, "receivedNoT")
		})
	}
}

// BenchmarkScenarioChaosMacro runs the composed contention-under-chaos
// scenario (skewed SmallBank across a partition-heal) on the two systems
// whose recovery modes differ most, reporting the goodput-recovery metric
// so the BENCH_N.json trajectory tracks it alongside MTPS and abort rates.
func BenchmarkScenarioChaosMacro(b *testing.B) {
	opts := benchOptions()
	opts.SendSeconds = 100
	for _, system := range []string{systems.NameFabric, systems.NameQuorum} {
		system := system
		b.Run(sanitize(system), func(b *testing.B) {
			sc, err := experiments.ScenarioByName("contention-under-chaos")
			if err != nil {
				b.Fatal(err)
			}
			sc.Systems = []string{system}
			var last coconut.Result
			for i := 0; i < b.N; i++ {
				outcome, err := experiments.Run(context.Background(), sc, opts)
				if err != nil {
					b.Fatal(err)
				}
				last = outcome.Rows[0].Result
			}
			b.ReportMetric(last.MTPS.Mean, "MTPS")
			b.ReportMetric(last.Goodput.Mean, "goodput")
			b.ReportMetric(100*last.AbortRate.Mean, "abortPct")
			b.ReportMetric(100*last.Availability.Mean, "availPct")
			b.ReportMetric(last.RecoverySec.Mean, "recoverySec")
			b.ReportMetric(last.GoodputRecoverySec.Mean, "goodputRecoverySec")
		})
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}

// BenchmarkAblationOrdering contrasts Fabric's two ordering backends (§5.4):
// Raft (fast, lossy under overload) vs Kafka (per-batch overhead, lossless).
func BenchmarkAblationOrdering(b *testing.B) {
	run := func(b *testing.B, ordering fabric.OrderingService) {
		b.Helper()
		var last coconut.Result
		for i := 0; i < b.N; i++ {
			res, err := coconut.Run(coconut.RunConfig{
				SystemName: "fabric-ablation",
				NewDriver: func(clk clock.Clock) systems.Driver {
					return fabric.New(fabric.Config{
						Ordering:        ordering,
						KafkaOverhead:   5 * time.Millisecond,
						MaxMessageCount: 16,
						BatchTimeout:    20 * time.Millisecond,
					})
				},
				Unit:            []coconut.BenchmarkName{coconut.BenchDoNothing},
				Clients:         2,
				RateLimit:       400,
				WorkloadThreads: 4,
				SendDuration:    time.Second,
				ListenGrace:     400 * time.Millisecond,
				Repetitions:     1,
			})
			if err != nil {
				b.Fatal(err)
			}
			last = res[0]
		}
		b.ReportMetric(last.MTPS.Mean, "MTPS")
		b.ReportMetric(last.Received.Mean, "receivedNoT")
	}
	b.Run("raft", func(b *testing.B) { run(b, fabric.OrderingRaft) })
	b.Run("kafka", func(b *testing.B) { run(b, fabric.OrderingKafka) })
}

// BenchmarkAblationSubsetSigning quantifies the paper's §6 suggestion: Corda
// flows signed by a subset of counterparties instead of the whole network.
func BenchmarkAblationSubsetSigning(b *testing.B) {
	run := func(b *testing.B, required, nodes int) {
		b.Helper()
		var last coconut.Result
		for i := 0; i < b.N; i++ {
			res, err := coconut.Run(coconut.RunConfig{
				SystemName: "corda-ablation",
				NewDriver: func(clk clock.Clock) systems.Driver {
					return corda.NewOS(corda.Config{
						Nodes:           nodes,
						RequiredSigners: required,
						SignProcessing:  5 * time.Millisecond,
						ScanCost:        time.Microsecond,
						FlowTimeout:     10 * time.Second,
					})
				},
				Unit:            []coconut.BenchmarkName{coconut.BenchDoNothing},
				Clients:         2,
				RateLimit:       400,
				WorkloadThreads: 4,
				SendDuration:    time.Second,
				ListenGrace:     400 * time.Millisecond,
				Repetitions:     1,
			})
			if err != nil {
				b.Fatal(err)
			}
			last = res[0]
		}
		b.ReportMetric(last.MTPS.Mean, "MTPS")
	}
	for _, nodes := range []int{4, 8, 16} {
		nodes := nodes
		b.Run("all-sign/nodes="+strconv.Itoa(nodes), func(b *testing.B) { run(b, 0, nodes) })
		b.Run("subset-3/nodes="+strconv.Itoa(nodes), func(b *testing.B) { run(b, 3, nodes) })
	}
}
