/**
 * @file
 * Microbenchmarks of the numeric substrate, in two halves:
 *
 *  1. The SoA kernels layer (src/linalg/kernels.h): every dispatching
 *     kernel timed against its bit-compatible `...Scalar` reference.
 *     On a host whose CPU supports AVX2 the dispatch side runs the
 *     AVX2 paths (in any build) and the speedup keys report the
 *     vector gain; elsewhere both sides run the same code and the
 *     speedups sit at ~1.0. BENCH_micro_backend names the choice.
 *
 *  2. The composite substrate costs the latency model abstracts
 *     (matrix multiply, propagator, eigensolve, a full GRAPE gradient
 *     iteration), so the secondsPerUnit calibration in
 *     src/model/latencymodel.h can be checked against this machine.
 *
 * Machine-readable output, one line per measurement:
 *   BENCH_micro_backend=avx2|scalar
 *   BENCH_micro_<kernel>_scalar_ns / BENCH_micro_<kernel>_simd_ns
 *   BENCH_micro_<kernel>_speedup   (scalar_ns / simd_ns)
 *   BENCH_micro_substrate_<name>_ns
 * The output is informational: timing is not a test, and no gate
 * reads these keys.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "grape/grape.h"
#include "linalg/eig.h"
#include "linalg/kernels.h"
#include "linalg/random_unitary.h"
#include "linalg/su2.h"
#include "pulse/evolve.h"
#include "sim/statevector.h"

using namespace qpc;

namespace {

/** Keep `p`'s pointee alive and opaque to the optimizer. */
inline void
clobber(const void* p)
{
    asm volatile("" : : "g"(p) : "memory");
}

/**
 * Best-of-rounds ns/op: calibrate a repetition count that runs ~10ms,
 * then take the fastest of several rounds (min is far more stable
 * than mean on a shared machine).
 */
template <typename F>
double
nsPerOp(F&& body)
{
    using clock = std::chrono::steady_clock;
    constexpr double kTargetNs = 1e7;
    constexpr int kRounds = 5;

    body(); // warm caches and the backend dispatch
    std::int64_t reps = 1;
    for (;;) {
        const auto t0 = clock::now();
        for (std::int64_t i = 0; i < reps; ++i)
            body();
        const double ns = std::chrono::duration<double, std::nano>(
                              clock::now() - t0)
                              .count();
        if (ns >= kTargetNs / 4.0 || reps >= (1LL << 30)) {
            // Scale to the target, then measure for real.
            reps = std::max<std::int64_t>(
                1, static_cast<std::int64_t>(reps * kTargetNs /
                                             std::max(ns, 1.0)));
            break;
        }
        reps *= 4;
    }
    double best = 0.0;
    for (int round = 0; round < kRounds; ++round) {
        const auto t0 = clock::now();
        for (std::int64_t i = 0; i < reps; ++i)
            body();
        const double ns = std::chrono::duration<double, std::nano>(
                              clock::now() - t0)
                              .count() /
                          static_cast<double>(reps);
        if (round == 0 || ns < best)
            best = ns;
    }
    return best;
}

struct KernelRow
{
    const char* name;
    double scalarNs;
    double simdNs;
};

std::vector<KernelRow>
benchKernels()
{
    Rng rng(7);
    std::vector<KernelRow> rows;
    auto add = [&](const char* name, double scalar_ns,
                   double simd_ns) {
        rows.push_back({name, scalar_ns, simd_ns});
    };

    // --- gemm, 64x64 planar ---------------------------------------
    {
        const int n = 64;
        kernels::SoaMatrix a(n, n), b(n, n), c(n, n);
        a.pack(haarUnitary(n, rng));
        b.pack(haarUnitary(n, rng));
        add("gemm64",
            nsPerOp([&] {
                kernels::gemmScalar(c, a, b);
                clobber(c.re());
            }),
            nsPerOp([&] {
                kernels::gemm(c, a, b);
                clobber(c.re());
            }));

        // What the production swap actually bought: the pre-SoA AoS
        // multiply loop (still the small-matrix path) against the full
        // pack + planar gemm + unpack route `multiplyInto` now takes.
        const CMatrix am = haarUnitary(n, rng);
        const CMatrix bm = haarUnitary(n, rng);
        CMatrix cm(n, n);
        add("gemm64_aos",
            nsPerOp([&] {
                kernels::gemmAosReference(cm, am, bm);
                clobber(cm.data());
            }),
            nsPerOp([&] {
                kernels::gemmInto(cm, am, bm);
                clobber(cm.data());
            }));
    }

    // --- gemv, 256x256 --------------------------------------------
    {
        const int n = 256;
        kernels::SoaMatrix a(n, n);
        a.pack(haarUnitary(n, rng));
        // 32-byte-aligned planar operands, as the production call
        // sites hold (SoaMatrix scratch). std::vector<double> is only
        // 16-byte aligned, and the resulting split 32-byte load every
        // other cache line taxes the vector side alone.
        kernels::SoaMatrix xv(1, n), yv(1, n);
        double* xre = xv.re();
        double* xim = xv.im();
        double* yre = yv.re();
        double* yim = yv.im();
        for (int i = 0; i < n; ++i) {
            xre[i] = rng.uniform(-1.0, 1.0);
            xim[i] = rng.uniform(-1.0, 1.0);
        }
        add("gemv256",
            nsPerOp([&] {
                kernels::gemvScalar(yre, yim, a, xre, xim);
                clobber(yre);
            }),
            nsPerOp([&] {
                kernels::gemv(yre, yim, a, xre, xim);
                clobber(yre);
            }));
    }

    // --- axpy / dotc / dotu over 1024 planar elements (L1-resident:
    // the GRAPE overlap and statevector inner products live at these
    // sizes, and L2 bandwidth would otherwise cap both sides) -------
    {
        const std::size_t n = 1024;
        // Aligned planar buffers, same rationale as the gemv block.
        kernels::SoaMatrix xv(1, static_cast<int>(n));
        kernels::SoaMatrix yv(1, static_cast<int>(n));
        double* xre = xv.re();
        double* xim = xv.im();
        double* yre = yv.re();
        double* yim = yv.im();
        for (std::size_t i = 0; i < n; ++i) {
            xre[i] = rng.uniform(-1.0, 1.0);
            xim[i] = rng.uniform(-1.0, 1.0);
            yre[i] = rng.uniform(-1.0, 1.0);
            yim[i] = rng.uniform(-1.0, 1.0);
        }
        const Complex alpha{0.6, -0.8};
        add("axpy1024",
            nsPerOp([&] {
                kernels::axpyScalar(alpha, xre, xim, yre, yim, n);
                clobber(yre);
            }),
            nsPerOp([&] {
                kernels::axpy(alpha, xre, xim, yre, yim, n);
                clobber(yre);
            }));
        add("dotc1024",
            nsPerOp([&] {
                const Complex d =
                    kernels::dotcScalar(xre, xim, yre, yim, n);
                clobber(&d);
            }),
            nsPerOp([&] {
                const Complex d = kernels::dotc(xre, xim, yre, yim, n);
                clobber(&d);
            }));
        add("dotu1024",
            nsPerOp([&] {
                const Complex d =
                    kernels::dotuScalar(xre, xim, yre, yim, n);
                clobber(&d);
            }),
            nsPerOp([&] {
                const Complex d = kernels::dotu(xre, xim, yre, yim, n);
                clobber(&d);
            }));

        // What the production swap actually bought at the GRAPE
        // overlap and statevector inner-product call sites: the
        // pre-kernels code walked interleaved std::complex arrays
        // accumulating into a single Complex — one dependent FP-add
        // chain, so it runs at add-latency per element no matter how
        // wide the machine is. The kernels layer keeps planar buffers
        // and reduces through eight independent stripes. The
        // `dotc1024` pair above isolates pure vectorization against
        // the already stripe-tuned scalar mirror; this pair is the
        // end-to-end ratio for the layout + reduction-shape swap.
        std::vector<Complex> xa(n), ya(n);
        for (std::size_t i = 0; i < n; ++i) {
            xa[i] = Complex{xre[i], xim[i]};
            ya[i] = Complex{yre[i], yim[i]};
        }
        add("dotc1024_aos",
            nsPerOp([&] {
                Complex acc{0.0, 0.0};
                for (std::size_t i = 0; i < n; ++i)
                    acc += std::conj(xa[i]) * ya[i];
                clobber(&acc);
            }),
            nsPerOp([&] {
                const Complex d = kernels::dotc(xre, xim, yre, yim, n);
                clobber(&d);
            }));
        add("dotu1024_aos",
            nsPerOp([&] {
                Complex acc{0.0, 0.0};
                for (std::size_t i = 0; i < n; ++i)
                    acc += xa[i] * ya[i];
                clobber(&acc);
            }),
            nsPerOp([&] {
                const Complex d = kernels::dotu(xre, xim, yre, yim, n);
                clobber(&d);
            }));
    }

    // --- scaleColumns, 64x64 --------------------------------------
    {
        const int n = 64;
        kernels::SoaMatrix m(n, n);
        m.pack(haarUnitary(n, rng));
        std::vector<Complex> factors(n);
        for (int i = 0; i < n; ++i)
            factors[i] = std::polar(1.0, rng.uniform(-3.0, 3.0));
        add("scalecols64",
            nsPerOp([&] {
                kernels::scaleColumnsScalar(m, factors.data());
                clobber(m.re());
            }),
            nsPerOp([&] {
                kernels::scaleColumns(m, factors.data());
                clobber(m.re());
            }));
    }

    // --- statevector gates, 10 qubits -----------------------------
    {
        const std::size_t dim = 1 << 10;
        std::vector<Complex> amps = randomState(dim, rng);
        CMatrix u1 = haarUnitary(2, rng);
        const Complex uflat1[4] = {u1(0, 0), u1(0, 1), u1(1, 0),
                                   u1(1, 1)};
        const std::size_t stride = 1 << 5; // vector-path stride
        add("gate1_10q",
            nsPerOp([&] {
                kernels::applyGate1Scalar(amps.data(), dim, stride,
                                          uflat1);
                clobber(amps.data());
            }),
            nsPerOp([&] {
                kernels::applyGate1(amps.data(), dim, stride, uflat1);
                clobber(amps.data());
            }));

        CMatrix u2 = haarUnitary(4, rng);
        Complex uflat2[16];
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                uflat2[4 * r + c] = u2(r, c);
        add("gate2_10q",
            nsPerOp([&] {
                kernels::applyGate2Scalar(amps.data(), dim, 1 << 7,
                                          1 << 4, uflat2);
                clobber(amps.data());
            }),
            nsPerOp([&] {
                kernels::applyGate2(amps.data(), dim, 1 << 7, 1 << 4,
                                    uflat2);
                clobber(amps.data());
            }));

        // Against the pre-kernels statevector loop (the AoS
        // std::complex arithmetic applyMatrix1 executed before this
        // layer; the property tests keep the same loop as oracle).
        add("gate1_10q_aos",
            nsPerOp([&] {
                for (std::size_t base = 0; base < dim; ++base) {
                    if (base & stride)
                        continue;
                    const Complex a0 = amps[base];
                    const Complex a1 = amps[base | stride];
                    amps[base] = u1(0, 0) * a0 + u1(0, 1) * a1;
                    amps[base | stride] = u1(1, 0) * a0 + u1(1, 1) * a1;
                }
                clobber(amps.data());
            }),
            nsPerOp([&] {
                kernels::applyGate1(amps.data(), dim, stride, uflat1);
                clobber(amps.data());
            }));

        const std::vector<Complex> other = randomState(dim, rng);
        add("dotc_ilv1024",
            nsPerOp([&] {
                const Complex d = kernels::dotcInterleavedScalar(
                    amps.data(), other.data(), dim);
                clobber(&d);
            }),
            nsPerOp([&] {
                const Complex d = kernels::dotcInterleaved(
                    amps.data(), other.data(), dim);
                clobber(&d);
            }));
    }

    return rows;
}

/** The composite costs the latency model calibrates against. */
void
benchSubstrate()
{
    Rng rng(1);
    const DeviceModel device = DeviceModel::gmonLine(4);
    std::vector<double> amps(device.numControls(), 0.1);
    const CMatrix h = sliceHamiltonian(device, amps);
    const CMatrix a = haarUnitary(16, rng);
    const CMatrix b = haarUnitary(16, rng);
    const DeviceModel device2q = DeviceModel::gmonLine(2);
    const CMatrix target = gateMatrix(GateKind::CX);
    // A Weyl-sized (4x4) real symmetric matrix and a width-3 GRAPE
    // block's slice Hamiltonian (8x8) price the eigensolver per size.
    CMatrix sym4(4, 4);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j <= i; ++j)
            sym4(i, j) = sym4(j, i) = rng.uniform(-1.0, 1.0);
    const DeviceModel clique3 = DeviceModel::gmonClique(3);
    const CMatrix h8 = sliceHamiltonian(
        clique3, std::vector<double>(clique3.numControls(), 0.1));
    // GRAPE's own path: the same Hamiltonian through the real solver.
    double h8r[64], vals8[8], vecs8[64];
    for (int i = 0; i < 64; ++i)
        h8r[i] = h8.data()[i].real();

    const struct
    {
        const char* name;
        double ns;
    } rows[] = {
        {"matmul16", nsPerOp([&] {
             CMatrix c = a * b;
             clobber(c.data());
         })},
        {"propagator16", nsPerOp([&] {
             CMatrix u = slicePropagator(h, 0.05);
             clobber(u.data());
         })},
        {"eig4", nsPerOp([&] {
             EigResult eig = eigHermitian(sym4);
             clobber(eig.values.data());
         })},
        {"eig8", nsPerOp([&] {
             EigResult eig = eigHermitian(h8);
             clobber(eig.values.data());
         })},
        {"eig8sym", nsPerOp([&] {
             eigSymmetric(h8r, 8, vals8, vecs8);
             clobber(vecs8);
         })},
        {"eig16", nsPerOp([&] {
             EigResult eig = eigHermitian(h);
             clobber(eig.values.data());
         })},
        {"grape_iter2q", nsPerOp([&] {
             GrapeOptions single;
             single.dt = 0.1;
             single.maxIterations = 1;
             GrapeResult r =
                 runGrapeFixedTime(device2q, target, 5.0, single);
             clobber(&r.fidelity);
         })},
    };

    TextTable table("Substrate composites (latency-model anchors)");
    table.addRow({"composite", "ns/op"});
    for (const auto& row : rows)
        table.addRow({row.name, std::to_string(row.ns)});
    table.print();
    for (const auto& row : rows)
        std::printf("BENCH_micro_substrate_%s_ns=%.1f\n", row.name,
                    row.ns);
}

} // namespace

int
main()
{
    inform("micro kernels: SoA dispatch vs scalar reference (backend ",
           kernels::backendName(), ")");

    const std::vector<KernelRow> rows = benchKernels();

    TextTable table("SoA kernels — dispatch vs scalar reference");
    table.addRow({"kernel", "scalar ns", "dispatch ns", "speedup"});
    for (const KernelRow& row : rows) {
        char speedup[32];
        std::snprintf(speedup, sizeof speedup, "%.2fx",
                      row.scalarNs / row.simdNs);
        table.addRow({row.name, std::to_string(row.scalarNs),
                      std::to_string(row.simdNs), speedup});
    }
    table.print();

    std::printf("BENCH_micro_backend=%s\n", kernels::backendName());
    for (const KernelRow& row : rows) {
        std::printf("BENCH_micro_%s_scalar_ns=%.1f\n", row.name,
                    row.scalarNs);
        std::printf("BENCH_micro_%s_simd_ns=%.1f\n", row.name,
                    row.simdNs);
        std::printf("BENCH_micro_%s_speedup=%.3f\n", row.name,
                    row.scalarNs / row.simdNs);
    }

    benchSubstrate();
    return 0;
}
