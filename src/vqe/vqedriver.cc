#include "vqe/vqedriver.h"

#include "common/logging.h"
#include "common/rng.h"

namespace qpc {

VqeResult
runVqe(const Circuit& ansatz, const PauliHamiltonian& hamiltonian,
       const VqeRunOptions& options)
{
    fatalIf(ansatz.numQubits() != hamiltonian.numQubits(),
            "ansatz width does not match the Hamiltonian");

    Rng rng(options.seed);
    std::vector<double> start(ansatz.numParams());
    for (double& v : start)
        v = options.initialSpread * rng.normal();

    VqeResult result;
    result.energy =
        runHybridLoop(ansatz, hamiltonian, start, options, result);
    if (ansatz.numQubits() <= 10)
        result.exactGroundEnergy = hamiltonian.groundStateEnergy();
    return result;
}

} // namespace qpc
