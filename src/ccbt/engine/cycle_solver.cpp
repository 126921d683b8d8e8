#include "ccbt/engine/cycle_solver.hpp"

namespace ccbt {

template ProjTableT<1> solve_cycle<1>(const ExecContext&, const Block&,
                                      TablePoolT<1>&, PathCounts&);
template ProjTableT<2> solve_cycle<2>(const ExecContext&, const Block&,
                                      TablePoolT<2>&, PathCounts&);
template ProjTableT<4> solve_cycle<4>(const ExecContext&, const Block&,
                                      TablePoolT<4>&, PathCounts&);
template ProjTableT<8> solve_cycle<8>(const ExecContext&, const Block&,
                                      TablePoolT<8>&, PathCounts&);

}  // namespace ccbt
