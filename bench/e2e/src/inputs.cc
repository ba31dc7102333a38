/**
 * @file
 * The benchmark's circuits and problems. Templates and graphs are
 * fixed (fixed graph seeds), so every --seed serves, compiles, and
 * converges the same plans; the seed drives the parameter bindings.
 */

#include "bench.h"

#include "common/rng.h"
#include "transpile/mapping.h"
#include "transpile/passes.h"
#include "vqe/molecule.h"
#include "vqe/uccsd.h"

namespace qpc::e2e {

Circuit
prepareCircuit(Circuit circuit)
{
    // The paper's nearest-neighbour hardware: a 2 x n/2 grid for even
    // n >= 6, a line below.
    const int n = circuit.numQubits();
    const Topology topology = n >= 6 && n % 2 == 0
                                  ? Topology::grid(2, n / 2)
                                  : Topology::line(n);
    optimizeCircuit(circuit);
    MappingResult mapped = mapToTopology(circuit, topology);
    optimizeCircuit(mapped.circuit);
    return mapped.circuit;
}

const Graph&
qaoaServeGraph()
{
    static const Graph graph = [] {
        Rng rng(11);
        return random3Regular(6, rng);
    }();
    return graph;
}

Circuit
moleculeTemplate(const std::string& molecule)
{
    return prepareCircuit(buildUccsdAnsatz(moleculeByName(molecule)));
}

const Graph&
qaoaConvergeGraph()
{
    static const Graph graph = [] {
        Rng rng(5);
        return erdosRenyi(8, 0.5, rng);
    }();
    return graph;
}

} // namespace qpc::e2e
