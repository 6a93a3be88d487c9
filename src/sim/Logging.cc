#include "sim/Logging.hh"

#include <cstdio>
#include <cstdlib>

namespace netdimm
{

namespace
{
bool quietFlag = false;
const bool debugFlag = std::getenv("NETDIMM_DEBUG") != nullptr;

void
vreport(const char *tag, const char *fmt, std::va_list ap)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
}
} // namespace

void
setQuiet(bool quiet)
{
    quietFlag = quiet;
}

void
debugLog(const char *fmt, ...)
{
    if (!debugFlag)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vreport("debug", fmt, ap);
    va_end(ap);
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (quietFlag)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

} // namespace netdimm
