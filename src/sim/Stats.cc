#include "sim/Stats.hh"

#include <iomanip>

namespace netdimm::stats
{

void
StatGroup::print(std::ostream &os) const
{
    os << "---- " << _name << " ----\n";
    for (const auto &r : _rows) {
        os << "  " << std::left << std::setw(40) << r.key << std::right
           << std::setw(16) << std::fixed << std::setprecision(3)
           << r.value;
        if (!r.unit.empty())
            os << " " << r.unit;
        os << "\n";
    }
}

} // namespace netdimm::stats
