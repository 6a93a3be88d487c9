#include "sim/Fault.hh"

namespace netdimm
{

namespace
{

/** FNV-1a, so a domain's stream depends only on its name. */
std::uint64_t
hashName(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** splitmix64 finalizer: decorrelates master ^ name-hash seeds. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

FaultDomain::FaultDomain(std::string name, std::uint64_t master_seed)
    : _name(std::move(name)),
      _rng(mix(master_seed ^ hashName(_name)), hashName(_name))
{}

FaultDomain &
FaultRegistry::domain(const std::string &name)
{
    auto it = _domains.find(name);
    if (it == _domains.end())
        it = _domains
                 .emplace(name,
                          std::make_unique<FaultDomain>(name, _master))
                 .first;
    return *it->second;
}

const FaultDomain *
FaultRegistry::find(const std::string &name) const
{
    auto it = _domains.find(name);
    return it == _domains.end() ? nullptr : it->second.get();
}

std::uint64_t
FaultRegistry::injected() const
{
    std::uint64_t n = 0;
    for (const auto &[name, d] : _domains)
        n += d->injected();
    return n;
}

std::uint64_t
FaultRegistry::recovered() const
{
    std::uint64_t n = 0;
    for (const auto &[name, d] : _domains)
        n += d->recovered();
    return n;
}

std::uint64_t
FaultRegistry::unrecovered() const
{
    std::uint64_t n = 0;
    for (const auto &[name, d] : _domains)
        n += d->unrecovered();
    return n;
}

bool
FaultRegistry::ledgerClosed() const
{
    for (const auto &[name, d] : _domains)
        if (!d->ledgerClosed())
            return false;
    return true;
}

void
FaultRegistry::print(std::ostream &os) const
{
    for (const auto &[name, d] : _domains)
        os << "  " << name << ": decisions=" << d->decisions()
           << " injected=" << d->injected()
           << " recovered=" << d->recovered()
           << " unrecovered=" << d->unrecovered() << "\n";
}

} // namespace netdimm
