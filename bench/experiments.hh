/**
 * @file
 * The experiments behind the claims table. Each bench/bench_<name>.cpp
 * runs its deterministic simulations once and appends one row per
 * experiment point (named `Experiment/arg`, e.g. `Incast/400`) to
 * @p rows, writing each metric into the row where it measures it.
 * shrimp_claims runs them all in this order.
 */

#ifndef SHRIMP_BENCH_EXPERIMENTS_HH
#define SHRIMP_BENCH_EXPERIMENTS_HH

#include <string>

#include "claims.hh"

namespace shrimp
{
namespace table1
{
struct PrimitiveCost;
} // namespace table1

namespace experiments
{

/** Append the row of one Table 1 primitive's measured @p cost: its
 *  user and kernel instructions per message, and data_ok. */
void costRow(claims::Rows &rows, std::string name,
             const table1::PrimitiveCost &cost);

void table1Overheads(claims::Rows &rows);   //!< T1.1-T1.7
/** T1.7, C1; reads table1Overheads' UserLevelCsendCrecv row. */
void nx2Comparison(claims::Rows &rows);
void latency(claims::Rows &rows);           //!< H1, H2
void bandwidth(claims::Rows &rows);         //!< H3, H4
void autoupdateModes(claims::Rows &rows);   //!< A1
void flowcontrol(claims::Rows &rows);       //!< A2
void mapping(claims::Rows &rows);           //!< A3
void mesh(claims::Rows &rows);              //!< A4
void scheduling(claims::Rows &rows);        //!< A5
void dmaBackoff(claims::Rows &rows);        //!< A6
void reliability(claims::Rows &rows);       //!< R1
void overload(claims::Rows &rows);          //!< O1
void dsm(claims::Rows &rows);               //!< D1
void partition(claims::Rows &rows);         //!< P1

} // namespace experiments
} // namespace shrimp

#endif // SHRIMP_BENCH_EXPERIMENTS_HH
