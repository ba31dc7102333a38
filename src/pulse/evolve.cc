#include "pulse/evolve.h"

#include <cmath>

#include "common/logging.h"
#include "linalg/kernels.h"

namespace qpc {

CMatrix
sliceHamiltonian(const DeviceModel& device,
                 const std::vector<double>& amplitudes)
{
    panicIf(static_cast<int>(amplitudes.size()) != device.numControls(),
            "expected ", device.numControls(), " amplitudes, got ",
            amplitudes.size());
    CMatrix h = device.drift();
    Complex* out = h.data();
    const size_t size =
        static_cast<size_t>(h.rows()) * static_cast<size_t>(h.cols());
    for (int c = 0; c < device.numControls(); ++c) {
        const double amp = amplitudes[c];
        if (amp == 0.0)
            continue;
        // Accumulate in place: no temporary matrix per control.
        const Complex* op = device.controls()[c].op.data();
        for (size_t i = 0; i < size; ++i)
            out[i] += op[i] * amp;
    }
    return h;
}

CMatrix
slicePropagator(const CMatrix& h, double dt)
{
    const int n = h.rows();

    // Scale so the Taylor series converges fast, then square back.
    double norm = h.frobeniusNorm() * dt;
    int squarings = 0;
    double scale = 1.0;
    while (norm * scale > 0.25) {
        scale *= 0.5;
        ++squarings;
    }

    CMatrix x = h * Complex{0.0, -dt * scale};
    CMatrix term = CMatrix::identity(n);
    CMatrix sum = CMatrix::identity(n);
    const int taylor_order = 10;
    for (int k = 1; k <= taylor_order; ++k) {
        term = term * x;
        term *= Complex{1.0 / k, 0.0};
        sum += term;
    }
    for (int i = 0; i < squarings; ++i)
        sum = sum * sum;
    return sum;
}

CMatrix
evolveUnitary(const DeviceModel& device, const PulseSchedule& schedule)
{
    panicIf(schedule.numChannels() != device.numControls(),
            "schedule has ", schedule.numChannels(),
            " channels; device exposes ", device.numControls());

    CMatrix u = CMatrix::identity(device.dim());
    std::vector<double> amps(device.numControls(), 0.0);
    for (int k = 0; k < schedule.numSamples(); ++k) {
        for (int c = 0; c < device.numControls(); ++c)
            amps[c] = schedule.channel(c)[k];
        const CMatrix h = sliceHamiltonian(device, amps);
        u = slicePropagator(h, schedule.dt()) * u;
    }
    return u;
}

double
traceFidelity(const CMatrix& target, const CMatrix& realized)
{
    panicIf(target.rows() != realized.rows() ||
                target.cols() != realized.cols(),
            "traceFidelity dimension mismatch");
    // tr(T^dag R) is the elementwise conjugated dot of T with R.
    const Complex overlap = kernels::dotcInterleaved(
        target.data(), realized.data(),
        static_cast<size_t>(target.rows()) *
            static_cast<size_t>(target.cols()));
    const double d = static_cast<double>(target.rows());
    return std::norm(overlap) / (d * d);
}

double
subspaceFidelity(const DeviceModel& device, const CMatrix& target,
                 const CMatrix& realized)
{
    const std::vector<int> comp = device.computationalIndices();
    const int qdim = static_cast<int>(comp.size());
    panicIf(target.rows() != qdim,
            "subspaceFidelity target must live in the qubit space");

    // Restrict the realized unitary to the computational block.
    CMatrix block(qdim, qdim);
    for (int r = 0; r < qdim; ++r)
        for (int c = 0; c < qdim; ++c)
            block(r, c) = realized(comp[r], comp[c]);

    const Complex overlap = kernels::dotcInterleaved(
        target.data(), block.data(),
        static_cast<size_t>(qdim) * static_cast<size_t>(qdim));
    const double d = static_cast<double>(qdim);
    return std::norm(overlap) / (d * d);
}

} // namespace qpc
