#include "sim/SystemConfig.hh"

namespace netdimm
{

const char *
nicKindName(NicKind kind)
{
    switch (kind) {
      case NicKind::Discrete:
        return "dNIC";
      case NicKind::DiscreteZeroCopy:
        return "dNIC.zcpy";
      case NicKind::Integrated:
        return "iNIC";
      case NicKind::IntegratedZeroCopy:
        return "iNIC.zcpy";
      case NicKind::NetDimm:
        return "NetDIMM";
    }
    return "?";
}

} // namespace netdimm
