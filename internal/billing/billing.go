// Package billing renders tenant invoices from a simulation run's
// per-tenant totals: guaranteed-capacity subscription, metered energy, and
// spot capacity line items. In a colocation business this is the surface
// tenants actually see; the paper's cost comparisons (Fig. 12(a)) are
// ratios of exactly these totals.
package billing

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"spotdc/internal/operator"
	"spotdc/internal/sim"
)

// ErrBilling reports invalid billing input.
var ErrBilling = errors.New("billing: invalid input")

// LineItem is one row of an invoice.
type LineItem struct {
	// Description labels the charge.
	Description string `json:"description"`
	// Quantity and Unit describe what is billed (kW-months, kWh, ...).
	Quantity float64 `json:"quantity"`
	Unit     string  `json:"unit"`
	// Rate is the unit price in dollars; Amount the extended total.
	Rate   float64 `json:"rate"`
	Amount float64 `json:"amount"`
}

// Invoice is one tenant's bill for a period.
type Invoice struct {
	// Tenant names the payer.
	Tenant string `json:"tenant"`
	// PeriodHours is the billed duration.
	PeriodHours float64 `json:"period_hours"`
	// Items lists the charges.
	Items []LineItem `json:"items"`
	// Total is the sum of item amounts.
	Total float64 `json:"total"`
	// SpotShare is the fraction of the total attributable to spot capacity
	// — the paper's "marginal cost" claim, per tenant.
	SpotShare float64 `json:"spot_share"`
}

// FromSimResult renders one invoice per tenant of a finished simulation
// run, sorted by tenant name, from the simulator's per-tenant totals.
func FromSimResult(res *sim.Result, pricing operator.Pricing) ([]Invoice, error) {
	if res == nil {
		return nil, fmt.Errorf("%w: nil result", ErrBilling)
	}
	if err := pricing.Validate(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(res.Tenants))
	for n := range res.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Invoice, 0, len(names))
	for _, n := range names {
		out = append(out, invoiceOf(pricing, n, res.Hours(), res.Tenants[n]))
	}
	return out, nil
}

// invoiceOf bills one tenant for hours of its reservation, its metered
// energy, and its spot capacity at what it actually paid.
func invoiceOf(p operator.Pricing, tenant string, hours float64, ts *sim.TenantStats) Invoice {
	inv := Invoice{Tenant: tenant, PeriodHours: hours}
	kwMonths := ts.Reserved / 1000 * hours / operator.HoursPerMonth
	sub := kwMonths * p.GuaranteedPerKWMonth
	inv.Items = append(inv.Items, LineItem{
		Description: "guaranteed capacity subscription",
		Quantity:    kwMonths, Unit: "kW-month",
		Rate: p.GuaranteedPerKWMonth, Amount: sub,
	})
	energy := ts.EnergyKWh * p.EnergyPerKWh
	inv.Items = append(inv.Items, LineItem{
		Description: "metered energy",
		Quantity:    ts.EnergyKWh, Unit: "kWh",
		Rate: p.EnergyPerKWh, Amount: energy,
	})
	spotRate := 0.0
	if ts.SpotKWh > 0 {
		spotRate = ts.Payment / ts.SpotKWh
	}
	inv.Items = append(inv.Items, LineItem{
		Description: fmt.Sprintf("spot capacity (%d slots, peak %.0f W)", ts.GrantSlots, ts.GrantFrac.Max()*ts.Reserved),
		Quantity:    ts.SpotKWh, Unit: "kWh",
		Rate: spotRate, Amount: ts.Payment,
	})
	inv.Total = sub + energy + ts.Payment
	if inv.Total > 0 {
		inv.SpotShare = ts.Payment / inv.Total
	}
	return inv
}

// Fprint renders an invoice as aligned text.
func (inv Invoice) Fprint(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "INVOICE  %s  (%.1f h ≈ %s)\n", inv.Tenant, inv.PeriodHours,
		(time.Duration(inv.PeriodHours * float64(time.Hour))).Round(time.Minute))
	for _, it := range inv.Items {
		fmt.Fprintf(bw, "  %-48s %10.4f %-9s @ %10.4f  $%10.6f\n",
			it.Description, it.Quantity, it.Unit, it.Rate, it.Amount)
	}
	fmt.Fprintf(bw, "  %-48s %36s  $%10.6f  (spot: %.2f%%)\n", "TOTAL", "", inv.Total, 100*inv.SpotShare)
	return bw.Flush()
}
