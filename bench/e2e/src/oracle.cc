/**
 * @file
 * Per-segment physics oracle: evolve a served pulse on the device
 * model and compare the realized unitary with the circuit it stands
 * for. The segment layout is rebuilt from the template the way
 * CompileService::prepareServing lays a plan out (strict partition,
 * each Fixed segment blocked by the service's own recipe at the
 * server's width cap, one segment per parametrized rotation), so a
 * reordered, mis-keyed, or mis-snapped segment shows up as a distance
 * far above its allowance.
 */

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "cache/quantize.h"
#include "partial/strict.h"
#include "pulse/device.h"
#include "pulse/evolve.h"
#include "sim/statevector.h"

namespace qpc::e2e {

double
unitaryDistance(const CMatrix& target, const CMatrix& realized)
{
    return std::sqrt(std::max(0.0, 1.0 - traceFidelity(target, realized)));
}

CMatrix
realizedUnitary(const PulseSchedule& pulse, int width)
{
    return evolveUnitary(DeviceModel::gmonClique(std::max(1, width)),
                         pulse);
}

OracleResult
checkServedSegments(const Circuit& templ, const std::vector<double>& theta,
                    const std::vector<PulseSchedule>& pulses,
                    int maxBlockWidth, int bins, double tolerance)
{
    CompileServiceOptions blocking;
    blocking.numWorkers = 1;
    blocking.maxBlockWidth = maxBlockWidth;
    const CompileService blocker(blocking);
    OracleResult result;
    std::size_t next = 0;
    const auto compare = [&](const Circuit& local, double allowed) {
        if (next >= pulses.size()) {
            result.worstExcess = 1.0; // missing segment
            return;
        }
        const double distance =
            unitaryDistance(circuitUnitary(local),
                            realizedUnitary(pulses[next++],
                                            local.numQubits()));
        ++result.segments;
        result.worstExcess =
            std::max(result.worstExcess, distance - allowed);
    };

    for (const StrictSegment& segment : strictPartition(templ).segments) {
        if (segment.fixed) {
            if (segment.circuit.empty())
                continue;
            for (const Circuit& block : blocker.fixedBlocksOf(segment.circuit))
                compare(block, tolerance);
            continue;
        }
        // The exact rotation, relabeled to local qubits; a snapped
        // serve may deviate by at most its bin's advertised bound.
        GateOp op = segment.circuit.ops().front();
        const double angle = op.angle.bind(theta);
        op.q0 = 0;
        if (op.arity() == 2)
            op.q1 = 1;
        op.angle = ParamExpr::constant(angle);
        Circuit local(op.arity());
        local.add(op);
        const double snap = quantizationErrorBound(wrappedAngleDelta(
            angle, binAngle(angleBin(angle, bins), bins)));
        compare(local, snap + tolerance);
    }
    if (next != pulses.size())
        result.worstExcess = std::max(result.worstExcess, 1.0);
    return result;
}

} // namespace qpc::e2e
