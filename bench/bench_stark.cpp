/**
 * @file
 * E13/E14 — transparent STARK backend characterization.
 *
 * Default mode sweeps both shipped AIRs (Fibonacci, MiMC hash chain)
 * over the trace-length sweep, timing prove and verify and recording
 * proof sizes, and writes BENCH_stark.json in the BENCH_kernels.json
 * entry schema — so bench_compare gates STARK prover regressions with
 * `bench_compare BENCH_stark.json --against <fresh>` exactly like the
 * kernel and serve baselines.
 *
 * --mix (E14) reruns the opcode-mix and MPKI analyses on the STARK
 * prover and prints them next to the Groth16 proving stage measured
 * the same way: the STARK prover is hash-compression dominated (wide
 * multiplies near zero per kilo-instruction, PrimOp::HashCompress the
 * top primitive) where the SNARK prover is Montgomery-multiply
 * dominated — the microarchitectural contrast EXPERIMENTS.md §E14
 * documents.
 *
 * --smoke proves and verifies one small instance per AIR and exits
 * nonzero on any failure (the CI stark-smoke step).
 *
 * Run: ./build/bench/bench_stark [--mix] [--smoke] [--out <path>]
 * Env: ZKP_MIN_LOG_N / ZKP_MAX_LOG_N (trace-length sweep),
 *      ZKP_REPEATS, ZKP_KERNEL_THREADS (prover threads, default 8),
 *      ZKP_SAMPLE_MASK (--mix cache-trace sampling)
 */

#include <memory>

#include "bench_util.h"
#include "core/analysis.h"
#include "kernels_common.h"
#include "stark/air.h"
#include "stark/serialize.h"
#include "stark/stark.h"

namespace zkp::bench {
namespace {

using stark::Gl;

stark::StarkParams
benchParams()
{
    return {}; // production defaults: blowup 8, 30 queries, 12 grind
}

std::unique_ptr<stark::Air>
makeAir(const std::string& name, std::size_t steps)
{
    if (name == "fib")
        return std::make_unique<stark::FibonacciAir>(
            steps, Gl::fromU64(1), Gl::fromU64(1));
    return std::make_unique<stark::MimcAir>(steps, Gl::fromU64(7));
}

int
runSmoke()
{
    for (const char* name : {"fib", "mimc"}) {
        const auto air = makeAir(name, 64);
        const auto params = benchParams();
        const stark::StarkProof proof = stark::prove(*air, params, 2);
        const auto bytes = stark::serializeProof(proof);
        const auto back = stark::deserializeProof(bytes);
        if (!back || !stark::verify(*air, params, *back)) {
            std::printf("bench_stark --smoke: %s FAILED\n", name);
            return 1;
        }
        std::printf("bench_stark --smoke: %s ok (%zu proof bytes)\n",
                    name, bytes.size());
    }
    return 0;
}

int
runTimings(const std::string& out_path)
{
    const std::size_t threads =
        (std::size_t)envLong("ZKP_KERNEL_THREADS", 8);
    const auto params = benchParams();

    std::vector<KernelEntry> entries;
    std::vector<std::pair<std::string, std::string>> notes;
    notes.emplace_back("queries", std::to_string(params.queries));
    notes.emplace_back("grind_bits",
                       std::to_string(params.grindBits));
    notes.emplace_back("blowup", std::to_string(params.blowup));
    // Which SHA-256 compression kernel produced these timings.
    notes.emplace_back("hash_kernel", stark::hashImplName());

    TextTable table;
    table.setHeader({"air", "steps", "prove", "verify",
                     "proof KiB", "bytes/step"});

    for (const char* name : {"fib", "mimc"}) {
        for (std::size_t n : sweepSizes()) {
            const auto air = makeAir(name, n);
            stark::StarkProof proof;
            bool ok = true;
            entries.push_back(timeKernel(
                std::string("stark_prove_") + name, n, threads, [&] {
                    proof = stark::prove(*air, params, threads);
                }));
            entries.push_back(timeKernel(
                std::string("stark_verify_") + name, n, 1,
                [&] { ok = stark::verify(*air, params, proof); }));
            if (!ok)
                std::printf("!! verification failed: %s n=%zu\n",
                            name, n);
            const std::size_t bytes =
                stark::proofByteSize(proof);
            notes.emplace_back(std::string("proof_bytes_") + name +
                                   "_" + std::to_string(n),
                               std::to_string(bytes));
            table.addRow(
                {name, "2^" + std::to_string(log2Of(n)),
                 fmtSeconds(entries[entries.size() - 2].secondsMean),
                 fmtSeconds(entries.back().secondsMean),
                 fmtF((double)bytes / 1024.0, 1),
                 fmtF((double)bytes / (double)n, 1)});
        }
    }
    printTable("STARK prove/verify (transparent, no setup)", table);

    const std::string json =
        kernelEntriesJson("bench_stark", entries, notes);
    if (!writeKernelJson(out_path, json)) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::printf("results written to %s\n", out_path.c_str());
    return 0;
}

/** Counter-and-cache observation of one full STARK prove. */
struct StarkObservation
{
    sim::Counters counters;
    std::vector<core::CpuObservation> cpus;
};

StarkObservation
observeStarkProve(const stark::Air& air, std::size_t threads,
                  sim::u32 sample_mask)
{
    const core::CpuModelSinks models(2'000'000);
    sim::drainWorkerCounters();
    const sim::Counters before = sim::counters();
    (void)stark::prove(air, benchParams(), threads, models.sinks(),
                       sample_mask);
    sim::drainWorkerCounters();
    return {sim::counters().since(before),
            models.observations(sample_mask)};
}

int
runMix()
{
    sim::installWorkerMergeHook();
    const std::size_t n = sweepSizes().back();
    const sim::u32 mask = sampleMask();

    TextTable table;
    table.setHeader({"prover", "comp%", "ctrl%", "data%",
                     "imul/kinstr", "hash-compress%", "i7 MPKI",
                     "i9 MPKI"});

    auto addRow = [&](const std::string& label,
                      const sim::Counters& c,
                      const std::vector<core::CpuObservation>& cpus) {
        const core::OpcodeMix mix = core::opcodeMixOf(c);
        const double instr = (double)c.instructions();
        const double imulK =
            instr > 0 ? (double)c.imuls / (instr / 1000.0) : 0;
        // Share of all instructions attributable to SHA-256
        // compressions (the STARK-side analog of the Montgomery-mul
        // share on the SNARK side).
        const auto sig = sim::signatureFor(
            sim::PrimOp::HashCompress, 1);
        const double hashInstr =
            (double)c.prim[(std::size_t)sim::PrimOp::HashCompress] *
            (sig.compute + sig.control + sig.data);
        double i7 = 0, i9 = 0;
        for (const auto& cpu : cpus) {
            const double mpki =
                instr > 0 ? cpu.llcLoadMisses / (instr / 1000.0)
                          : 0;
            const std::string cn = cpu.cpu->name;
            if (cn.find("i7") != std::string::npos)
                i7 = mpki;
            else if (cn.find("i9") != std::string::npos)
                i9 = mpki;
        }
        table.addRow({label, fmtF(mix.computePct, 1),
                      fmtF(mix.controlPct, 1), fmtF(mix.dataPct, 1),
                      fmtF(imulK, 1),
                      fmtF(instr > 0 ? 100.0 * hashInstr / instr : 0,
                           1),
                      fmtF(i7, 3), fmtF(i9, 3)});
    };

    for (const char* name : {"fib", "mimc"}) {
        const auto air = makeAir(name, n);
        const StarkObservation obs =
            observeStarkProve(*air, 1, mask);
        addRow(std::string("stark ") + name + " 2^" +
                   std::to_string(log2Of(n)),
               obs.counters, obs.cpus);
    }

    // The SNARK contrast: the Groth16 proving stage at the same size,
    // observed through the identical cache/counter machinery.
    {
        core::SweepConfig cfg;
        cfg.sizes = {n};
        cfg.sampleMask = mask;
        core::StageRunner<snark::Bn254> runner(n);
        const core::StageObservation obs = core::observeStage(
            runner, core::Stage::Proving, cfg);
        addRow("groth16 prove 2^" + std::to_string(log2Of(n)),
               obs.run.counters, obs.cpus);
    }

    printTable("E14: STARK vs SNARK prover opcode mix and LLC MPKI",
               table);
    std::printf(
        "\nReading: the STARK prover's instruction stream is "
        "dominated by SHA-256 compressions\n(register-resident "
        "rotate/xor/add, near-zero wide multiplies), while the "
        "Groth16 prover\nis Montgomery-CIOS dominated "
        "(~20 imuls per 4-limb mul). See EXPERIMENTS.md §E14.\n");
    return 0;
}

} // namespace
} // namespace zkp::bench

int
main(int argc, char** argv)
{
    using namespace zkp::bench;
    bool smoke = false, mix = false;
    std::string out_path = "BENCH_stark.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--mix") == 0) {
            mix = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "unknown argument: %s\n"
                         "usage: %s [--mix] [--smoke] [--out <path>]\n",
                         argv[i], argv[0]);
            return 2;
        }
    }
    std::printf("bench_stark: transparent STARK/FRI backend "
                "(Goldilocks, SHA-256 Merkle, blowup 8)\n");
    if (smoke)
        return runSmoke();
    if (mix)
        return runMix();
    return runTimings(out_path);
}
