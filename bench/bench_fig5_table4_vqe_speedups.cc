/**
 * @file
 * Regenerates Figure 5 and the VQE half of Table 4: pulse durations
 * for the five UCCSD molecules under all four compilation strategies,
 * plus the speedup factors relative to gate-based compilation.
 *
 * Shape to reproduce: Full GRAPE achieves roughly 1.5-2x on the
 * larger molecules (and far more on the tiny ones, whose whole
 * circuit fits a single GRAPE block); strict recovers a large share
 * of that advantage, and flexible nearly closes the remaining gap.
 */

#include "bench/benchcommon.h"
#include "common/logging.h"
#include "common/table.h"
#include "partial/compiler.h"

using namespace qpc;
using namespace qpc::bench;

int
main()
{
    inform("Figure 5 / Table 4 (VQE): pulse durations by strategy");

    // Paper Table 4 (ns): gate, strict, flexible, grape per molecule.
    const double paper[5][4] = {
        {35.3, 15.0, 5.0, 3.1},
        {871.1, 307.0, 84.0, 19.3},
        {5308.3, 2596.5, 2503.8, 2461.7},
        {5490.4, 2842.7, 2770.8, 2752.0},
        {33842.2, 24781.4, 23546.7, 23546.7},
    };

    TextTable table("Table 4 (VQE) — pulse durations (ns)");
    table.addRow({"Molecule", "Gate", "Strict", "Flexible", "GRAPE",
                  "Speedup s/f/g", "Paper speedup s/f/g"});

    int index = 0;
    for (const MoleculeSpec& spec : vqeBenchmarks()) {
        const Circuit circuit = vqeBenchmarkCircuit(spec);
        PartialCompiler compiler(circuit);
        const std::vector<double> theta =
            nestedAngles(circuit.numParams(), 31);
        const std::vector<CompileReport> reports =
            compiler.compileAll(theta);

        const double gate = reports[0].pulseNs;
        const double strict_ns = reports[1].pulseNs;
        const double flex = reports[2].pulseNs;
        const double grape = reports[3].pulseNs;
        fatalIf(strict_ns > gate + 1e-6,
                spec.name, ": strict exceeded gate-based");
        fatalIf(flex > strict_ns + 1e-6,
                spec.name, ": flexible exceeded strict");
        fatalIf(grape > flex + 1e-6,
                spec.name, ": full GRAPE exceeded flexible");

        const std::string ours = fmtRatio(gate / strict_ns) + " / " +
                                 fmtRatio(gate / flex) + " / " +
                                 fmtRatio(gate / grape);
        const std::string theirs =
            fmtRatio(paper[index][0] / paper[index][1]) + " / " +
            fmtRatio(paper[index][0] / paper[index][2]) + " / " +
            fmtRatio(paper[index][0] / paper[index][3]);
        table.addRow({spec.name, fmtNs(gate), fmtNs(strict_ns),
                      fmtNs(flex), fmtNs(grape), ours, theirs});
        ++index;
    }
    table.print();

    inform("orderings gate >= strict >= flexible >= GRAPE hold for "
           "every molecule; the last column gives the paper's speedups "
           "for comparison.");
    return 0;
}
