/**
 * @file
 * The gmon device model (Appendix A of the paper).
 *
 * Each qubit j carries a charge-drive control with Hamiltonian
 * Omega_c,j(t) (a_j^dag + a_j) and a flux-drive control with
 * Hamiltonian Omega_f,j(t) a_j^dag a_j; each coupled pair (j, k)
 * carries g_jk(t) (a_j^dag + a_j)(a_k^dag + a_k). In the qubit
 * subspace these generate Rx-type, Rz-type, and XX-type evolution
 * respectively. Amplitude bounds follow the paper:
 * |Omega_c| <= 2 pi x 0.1 GHz, |Omega_f| <= 2 pi x 1.5 GHz,
 * |g| <= 2 pi x 0.05 GHz — note the 15x Z/X drive asymmetry that
 * GRAPE exploits.
 *
 * Setting levels = 3 models qutrit leakage: operators are truncated to
 * three levels instead of two and an anharmonicity term enters the
 * drift, as in the paper's "more realistic" configuration (Table 5).
 */

#ifndef QPC_PULSE_DEVICE_H
#define QPC_PULSE_DEVICE_H

#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "transpile/mapping.h"

namespace qpc {

/** One controllable drive line: a real symmetric generator and its bound. */
struct ControlChannel
{
    std::string name;   ///< e.g. "charge[2]", "coupler[0-1]".
    CMatrix op;         ///< Real symmetric generator in the full space.
    double maxAmp;      ///< Amplitude bound in rad/ns.
};

/** Physical constants of the modelled gmon system, in rad/ns. */
struct GmonLimits
{
    double chargeMax = 2.0 * 3.14159265358979323846 * 0.1;
    double fluxMax = 2.0 * 3.14159265358979323846 * 1.5;
    double couplerMax = 2.0 * 3.14159265358979323846 * 0.05;
    /** Qutrit anharmonicity (only used when levels == 3). */
    double anharmonicity = -2.0 * 3.14159265358979323846 * 0.2;
};

/**
 * A concrete device: qubit count, level truncation, coupling graph,
 * and the derived control channels.
 */
class DeviceModel
{
  public:
    /**
     * Build a gmon device over an explicit topology.
     *
     * @param num_qubits Number of qubits (1..4 for GRAPE use).
     * @param couplings Coupled pairs (nearest neighbours on hardware).
     * @param levels 2 for the qubit approximation, 3 to model leakage.
     */
    DeviceModel(int num_qubits,
                std::vector<std::pair<int, int>> couplings,
                int levels = 2, GmonLimits limits = {});

    /** Line-coupled device, the common GRAPE block shape. */
    static DeviceModel gmonLine(int num_qubits, int levels = 2);

    /** Device with all-to-all couplers (small blocks / tests). */
    static DeviceModel gmonClique(int num_qubits, int levels = 2);

    int numQubits() const { return numQubits_; }
    int levels() const { return levels_; }
    const GmonLimits& limits() const { return limits_; }
    const std::vector<std::pair<int, int>>& couplings() const
    {
        return couplings_;
    }

    /** Hilbert-space dimension levels^numQubits. */
    int dim() const;

    /** All control channels: charge + flux per qubit, then couplers. */
    const std::vector<ControlChannel>& controls() const
    {
        return controls_;
    }
    int numControls() const { return static_cast<int>(controls_.size()); }

    /** Drift Hamiltonian (zero for qubits; anharmonicity for qutrits). */
    const CMatrix& drift() const { return drift_; }

    /**
     * Indices of the computational (all levels < 2) basis states; the
     * identity permutation when levels == 2.
     */
    std::vector<int> computationalIndices() const;

    /**
     * Embed a 2^n x 2^n unitary into the device space, acting as
     * identity on leakage levels. Exactly the input when levels == 2.
     */
    CMatrix embedUnitary(const CMatrix& u) const;

  private:
    void buildControls();

    int numQubits_;
    int levels_;
    GmonLimits limits_;
    std::vector<std::pair<int, int>> couplings_;
    std::vector<ControlChannel> controls_;
    CMatrix drift_;
};

} // namespace qpc

#endif // QPC_PULSE_DEVICE_H
