#include "ccbt/engine/path_builder.hpp"

namespace ccbt {

template ProjTableT<1> build_path<1>(const ExecContext&, const Block&,
                                     TablePoolT<1>&, const PathSpec&);
template ProjTableT<2> build_path<2>(const ExecContext&, const Block&,
                                     TablePoolT<2>&, const PathSpec&);
template ProjTableT<4> build_path<4>(const ExecContext&, const Block&,
                                     TablePoolT<4>&, const PathSpec&);
template ProjTableT<8> build_path<8>(const ExecContext&, const Block&,
                                     TablePoolT<8>&, const PathSpec&);
template ProjTableT<1> build_path<1>(const ExecContext&, TablePoolT<1>&,
                                     const std::vector<PathStep>&);
template ProjTableT<2> build_path<2>(const ExecContext&, TablePoolT<2>&,
                                     const std::vector<PathStep>&);
template ProjTableT<4> build_path<4>(const ExecContext&, TablePoolT<4>&,
                                     const std::vector<PathStep>&);
template ProjTableT<8> build_path<8>(const ExecContext&, TablePoolT<8>&,
                                     const std::vector<PathStep>&);

}  // namespace ccbt
