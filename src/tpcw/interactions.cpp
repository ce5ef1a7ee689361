#include "tpcw/interactions.hpp"

#include <algorithm>
#include <unordered_map>

namespace dmv::tpcw {

using api::Connection;
using api::Params;
using api::ScanSpec;
using api::TxnResult;
using storage::Key;
using storage::Row;
using storage::RowRef;
using storage::Rows;
using storage::Value;

namespace {

// Named builders: GCC 12 miscompiles braced-init-list temporaries living
// across co_await, so keys/rows are always built through calls.
Key K1(Value a) { return Key{std::move(a)}; }
Key K2(Value a, Value b) { return Key{std::move(a), std::move(b)}; }

int64_t as_int(const Row& r, size_t c) { return std::get<int64_t>(r[c]); }
double as_dbl(const Row& r, size_t c) { return std::get<double>(r[c]); }
const std::string& as_str(const Row& r, size_t c) {
  return std::get<std::string>(r[c]);
}

ScanSpec exact(int index, Key key, size_t limit = SIZE_MAX) {
  ScanSpec s;
  s.index = index;
  s.hi = key;
  s.lo = std::move(key);
  s.limit = limit;
  return s;
}

// --- read-only interactions ---

sim::Task<TxnResult> home(Connection& c, const Params& p) {
  TxnResult res;
  Key ck = K1(p.i("c_id"));
  auto cust = co_await c.get(kCustomer, ck);
  if (cust) ++res.rows;
  Key ik = K1(p.i("i_id"));
  auto item = co_await c.get(kItem, ik);
  if (item) {
    ++res.rows;
    // The home page shows a related promotional item.
    Key rk = K1(as_int(*item, col::I_RELATED1));
    auto rel = co_await c.get(kItem, rk);
    if (rel) ++res.rows;
  }
  res.ok = true;
  co_return res;
}

sim::Task<TxnResult> product_detail(Connection& c, const Params& p) {
  TxnResult res;
  Key ik = K1(p.i("i_id"));
  auto item = co_await c.get(kItem, ik);
  if (item) {
    ++res.rows;
    Key ak = K1(as_int(*item, col::I_A_ID));
    auto author = co_await c.get(kAuthor, ak);
    if (author) ++res.rows;
  }
  res.ok = item.has_value();
  co_return res;
}

sim::Task<TxnResult> admin_request(Connection& c, const Params& p) {
  TxnResult res;
  Key ik = K1(p.i("i_id"));
  auto item = co_await c.get(kItem, ik);
  res.ok = item.has_value();
  res.rows = item ? 1 : 0;
  co_return res;
}

sim::Task<TxnResult> search_request(Connection& c, const Params& p) {
  // Serving the search form: one promo item lookup.
  TxnResult res;
  Key ik = K1(p.i("i_id"));
  auto item = co_await c.get(kItem, ik);
  res.ok = true;
  res.rows = item ? 1 : 0;
  co_return res;
}

sim::Task<TxnResult> new_products(Connection& c, const Params& p) {
  TxnResult res;
  // Newest items in a subject (index is (subject, pub_date); reverse scan
  // within the subject prefix gives newest-first).
  ScanSpec s;
  s.index = idx::kItemBySubject;
  s.lo = K1(p.s("subject"));
  s.hi = K1(p.s("subject"));
  s.reverse = true;
  s.limit = 50;
  auto items = co_await c.scan(kItem, std::move(s));
  res.rows = items.size();
  const size_t author_lookups = std::min<size_t>(items.size(), 10);
  for (size_t i = 0; i < author_lookups; ++i) {
    Key ak = K1(items[i].i(col::I_A_ID));
    auto a = co_await c.get(kAuthor, ak);
    if (a) ++res.rows;
  }
  res.ok = true;
  co_return res;
}

sim::Task<TxnResult> search_results(Connection& c, const Params& p) {
  TxnResult res;
  const int64_t kind = p.i("kind");  // 0 subject, 1 title, 2 author
  Rows items;
  if (kind == 0) {
    ScanSpec s;
    s.index = idx::kItemBySubject;
    s.lo = K1(p.s("term"));
    s.hi = K1(p.s("term"));
    s.limit = 50;
    items = co_await c.scan(kItem, std::move(s));
  } else if (kind == 1) {
    ScanSpec s;
    s.index = idx::kItemByTitle;
    s.lo = K1(p.s("term"));
    s.hi = K1(p.s("term") + "~");  // '~' > any title character we generate
    s.limit = 50;
    items = co_await c.scan(kItem, std::move(s));
  } else {
    // by author last name: find authors, then their books.
    ScanSpec sa = exact(idx::kAuthorByLname, K1(p.s("term")), 20);
    auto authors = co_await c.scan(kAuthor, std::move(sa));
    for (const RowRef a : authors) {
      if (items.size() >= 50) break;
      ScanSpec si = exact(idx::kItemByAuthor, K1(a.i(col::A_ID)), 50);
      auto more = co_await c.scan(kItem, std::move(si));
      items.append(more, 50 - items.size());
    }
  }
  res.rows = items.size();
  const size_t author_lookups = std::min<size_t>(items.size(), 5);
  for (size_t i = 0; i < author_lookups; ++i) {
    Key ak = K1(items[i].i(col::I_A_ID));
    auto a = co_await c.get(kAuthor, ak);
    (void)a;
  }
  res.ok = true;
  co_return res;
}

sim::Task<TxnResult> best_sellers(Connection& c, const Params& p) {
  TxnResult res;
  const int64_t depth = p.i("depth");  // recent orders to consider

  // Latest order id (orders are issued with monotonically growing ids).
  ScanSpec last;
  last.reverse = true;
  last.limit = 1;
  auto newest = co_await c.scan(kOrders, std::move(last));
  if (newest.empty()) {
    res.ok = true;
    co_return res;
  }
  const int64_t o_max = newest[0].i(col::O_ID);
  const int64_t o_min = std::max<int64_t>(1, o_max - depth);

  // Aggregate quantities over the order lines of the recent orders — the
  // complex-join query the paper singles out.
  ScanSpec lines;
  lines.lo = K1(o_min);
  auto ols = co_await c.scan(kOrderLine, std::move(lines));
  std::unordered_map<int64_t, int64_t> qty_by_item;
  for (const RowRef ol : ols)
    qty_by_item[ol.i(col::OL_I_ID)] += ol.i(col::OL_QTY);

  std::vector<std::pair<int64_t, int64_t>> ranked(qty_by_item.begin(),
                                                  qty_by_item.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });

  const bool filter_subject = p.has("subject");
  const std::string subject = filter_subject ? p.s("subject") : "";
  size_t listed = 0;
  for (const auto& [i_id, qty] : ranked) {
    if (listed >= 50) break;
    Key ik = K1(i_id);
    auto item = co_await c.get(kItem, ik);
    if (!item) continue;
    if (filter_subject && as_str(*item, col::I_SUBJECT) != subject) continue;
    ++listed;
    if (listed <= 10) {
      Key ak = K1(as_int(*item, col::I_A_ID));
      auto a = co_await c.get(kAuthor, ak);
      (void)a;
    }
  }
  res.rows = listed;
  res.ok = true;
  co_return res;
}

sim::Task<TxnResult> order_inquiry(Connection& c, const Params& p) {
  TxnResult res;
  ScanSpec s = exact(idx::kCustomerByUname, K1(p.s("uname")), 1);
  auto rows = co_await c.scan(kCustomer, std::move(s));
  res.ok = true;
  res.rows = rows.size();
  co_return res;
}

sim::Task<TxnResult> order_display(Connection& c, const Params& p) {
  TxnResult res;
  // Most recent order of this customer.
  ScanSpec s;
  s.index = idx::kOrdersByCustomer;
  s.lo = K1(p.i("c_id"));
  s.hi = K1(p.i("c_id"));
  s.reverse = true;
  s.limit = 1;
  auto orders = co_await c.scan(kOrders, std::move(s));
  res.ok = true;
  if (orders.empty()) co_return res;
  const RowRef order = orders[0];
  ++res.rows;
  res.value = order.i(col::O_ID);

  ScanSpec ls = exact(-1, K1(order.i(col::O_ID)), 10);
  auto ols = co_await c.scan(kOrderLine, std::move(ls));
  for (const RowRef ol : ols) {
    ++res.rows;
    Key ik = K1(ol.i(col::OL_I_ID));
    auto item = co_await c.get(kItem, ik);
    (void)item;
  }
  Key bk = K1(order.i(col::O_BILL_ADDR_ID));
  auto bill = co_await c.get(kAddress, bk);
  if (bill) {
    Key ck = K1(as_int(*bill, col::ADDR_CO_ID));
    co_await c.get(kCountry, ck);
  }
  Key sk = K1(order.i(col::O_SHIP_ADDR_ID));
  auto ship = co_await c.get(kAddress, sk);
  if (ship) {
    Key ck = K1(as_int(*ship, col::ADDR_CO_ID));
    co_await c.get(kCountry, ck);
  }
  Key xk = K1(order.i(col::O_ID));
  co_await c.get(kCcXacts, xk);
  co_return res;
}

// --- update interactions ---

// Lock-ordering note: the update interactions take their locks in one
// global table order — customer < address < shopping_cart <
// shopping_cart_line < orders < order_line < cc_xacts < item — and take
// write-intent (X) first, never read-then-upgrade on a shared page.
// Page-level 2PL turns ordering violations and upgrade patterns on hot
// pages into deadlock cascades under load; a real OLTP kit orders its
// statements the same way.
sim::Task<TxnResult> shopping_cart(Connection& c, const Params& p) {
  TxnResult res;
  const int64_t sc_id = p.i("sc_id");
  const int64_t i_id = p.i("i_id");
  const int64_t qty = p.i("qty");
  const int64_t date = p.i("date");

  // X-lock the cart row up front (create it on first use).
  Key ck = K1(sc_id);
  const bool have_cart = co_await c.update(
      kShoppingCart, ck, [date](Row& r) { r[col::SC_DATE] = date; });
  if (!have_cart) {
    Row row{sc_id, p.i("c_id"), date, 0.0};
    co_await c.insert(kShoppingCart, row);
  }
  Key lk = K2(sc_id, i_id);
  const bool line_updated =
      co_await c.update(kShoppingCartLine, lk, [qty](Row& r) {
        r[col::SCL_QTY] = std::get<int64_t>(r[col::SCL_QTY]) + qty;
      });
  if (!line_updated) {
    Row line{sc_id, i_id, qty};
    co_await c.insert(kShoppingCartLine, line);
  }
  Key ik = K1(i_id);
  auto item = co_await c.get(kItem, ik);
  const double price = item ? as_dbl(*item, col::I_COST) : 10.0;
  co_await c.update(kShoppingCart, ck, [&](Row& r) {
    r[col::SC_SUB_TOTAL] =
        std::get<double>(r[col::SC_SUB_TOTAL]) + price * double(qty);
  });
  res.ok = true;
  res.rows = 1;
  co_return res;
}

sim::Task<TxnResult> customer_registration(Connection& c, const Params& p) {
  TxnResult res;
  const int64_t c_id = p.i("new_c_id");
  const int64_t addr_id = p.i("new_addr_id");
  const int64_t date = p.i("date");
  // Global order: customer before address.
  Row cust{c_id,       uname_of(c_id), "password", "fn",    "ln",
           addr_id,    "555-0199",     "new@example.com",   date,
           date,       int64_t{0},     date + 7200, 0.1,    0.0,
           0.0,        int64_t{1980},  "new customer"};
  const bool ok = co_await c.insert(kCustomer, cust);
  Row addr{addr_id, "street1", "street2", "newcity", "newstate", "zip",
           p.i("co_id")};
  co_await c.insert(kAddress, addr);
  res.ok = ok;
  res.rows = 2;
  res.value = c_id;
  co_return res;
}

sim::Task<TxnResult> buy_request(Connection& c, const Params& p) {
  TxnResult res;
  const int64_t c_id = p.i("c_id");
  const int64_t date = p.i("date");
  // X the customer row first (write intent), then read.
  Key ck = K1(c_id);
  const bool found = co_await c.update(kCustomer, ck, [date](Row& r) {
    r[col::C_LAST_LOGIN] = r[col::C_LOGIN];
    r[col::C_LOGIN] = date;
  });
  if (!found) {
    res.ok = false;
    co_return res;
  }
  auto cust = co_await c.get(kCustomer, ck);
  Key ak = K1(as_int(*cust, col::C_ADDR_ID));
  co_await c.get(kAddress, ak);
  // Display the cart.
  ScanSpec ls = exact(-1, K1(p.i("sc_id")), 10);
  auto lines = co_await c.scan(kShoppingCartLine, std::move(ls));
  res.rows = 1 + lines.size();
  res.ok = true;
  co_return res;
}

sim::Task<TxnResult> buy_confirm(Connection& c, const Params& p) {
  TxnResult res;
  const int64_t sc_id = p.i("sc_id");
  const int64_t c_id = p.i("c_id");
  const int64_t o_id = p.i("new_o_id");
  const int64_t date = p.i("date");

  // Global order: customer, then cart, lines, orders, order lines,
  // cc_xacts, and items strictly last.
  Key custk = K1(c_id);
  auto cust = co_await c.get(kCustomer, custk);
  const int64_t addr =
      cust ? as_int(*cust, col::C_ADDR_ID) : int64_t{1};

  Key ck0 = K1(sc_id);
  const bool have_cart =
      co_await c.update(kShoppingCart, ck0, [date](Row& r) {
        r[col::SC_DATE] = date;
        r[col::SC_SUB_TOTAL] = 0.0;
      });
  if (!have_cart) {
    res.ok = false;
    co_return res;
  }
  ScanSpec ls = exact(-1, K1(sc_id), 10);
  auto lines = co_await c.scan(kShoppingCartLine, std::move(ls));
  if (lines.empty()) {
    res.ok = false;  // nothing to buy
    co_return res;
  }
  // Empty the cart now (line pages precede orders in the lock order).
  for (const RowRef l : lines) {
    Key lk = K2(sc_id, l.i(col::SCL_I_ID));
    co_await c.remove(kShoppingCartLine, lk);
  }

  double sub = 0;
  for (const RowRef l : lines) sub += 10.0 * double(l.i(col::SCL_QTY));
  Row order{o_id,       c_id, date,     sub,  sub * 0.08, sub * 1.08,
            "AIR",      date + 3, addr, addr, "PENDING"};
  const bool inserted = co_await c.insert(kOrders, order);
  if (!inserted) {
    res.ok = false;  // duplicate order id (client retry)
    co_return res;
  }
  int64_t n = 0;
  for (const RowRef l : lines) {
    ++n;
    Row ol{o_id, n, l.i(col::SCL_I_ID), l.i(col::SCL_QTY), 0.0, "comment"};
    co_await c.insert(kOrderLine, ol);
  }
  Row cc{o_id, "VISA", int64_t{4242424}, "cardholder", int64_t{2010},
         "auth", sub * 1.08, date, int64_t{1}};
  co_await c.insert(kCcXacts, cc);

  // Stock updates last (items are the highest table in the lock order).
  for (const RowRef l : lines) {
    const int64_t qty = l.i(col::SCL_QTY);
    Key ik = K1(l.i(col::SCL_I_ID));
    co_await c.update(kItem, ik, [qty](Row& r) {
      int64_t stock = std::get<int64_t>(r[col::I_STOCK]) - qty;
      if (stock < 10) stock += 21;
      r[col::I_STOCK] = stock;
    });
  }
  res.ok = true;
  res.rows = lines.size() + 2;
  res.value = o_id;
  co_return res;
}

sim::Task<TxnResult> admin_confirm(Connection& c, const Params& p) {
  TxnResult res;
  const int64_t i_id = p.i("i_id");
  const int64_t date = p.i("date");

  // Related items from recent co-purchases (bounded look-back).
  ScanSpec last;
  last.reverse = true;
  last.limit = 1;
  auto newest = co_await c.scan(kOrders, std::move(last));
  std::vector<int64_t> related;
  if (!newest.empty()) {
    const int64_t o_max = newest[0].i(col::O_ID);
    ScanSpec lines;
    lines.lo = K1(std::max<int64_t>(1, o_max - 100));
    auto ols = co_await c.scan(kOrderLine, std::move(lines));
    for (const RowRef ol : ols) {
      const int64_t other = ol.i(col::OL_I_ID);
      if (other != i_id &&
          std::find(related.begin(), related.end(), other) == related.end())
        related.push_back(other);
      if (related.size() >= 5) break;
    }
  }
  while (related.size() < 5) related.push_back(i_id);

  const bool ok = co_await c.update(kItem, K1(i_id), [&](Row& r) {
    r[col::I_RELATED1] = related[0];
    r[col::I_RELATED2] = related[1];
    r[col::I_RELATED3] = related[2];
    r[col::I_RELATED4] = related[3];
    r[col::I_RELATED5] = related[4];
    r[col::I_PUB_DATE] = date;
    r[col::I_SRP] = std::get<double>(r[col::I_SRP]) * 1.01;
  });
  res.ok = ok;
  res.rows = 1;
  co_return res;
}

}  // namespace

api::ProcRegistry make_registry(const ScaleConfig& scale) {
  (void)scale;
  api::ProcRegistry reg;
  auto add = [&](const char* name, api::ProcFn fn, bool read_only,
                 std::vector<storage::TableId> tables) {
    api::ProcInfo info;
    info.fn = std::move(fn);
    info.read_only = read_only;
    info.tables = std::move(tables);
    reg.register_proc(name, std::move(info));
  };
  add(proc::kHome, home, true, {kCustomer, kItem});
  add(proc::kNewProducts, new_products, true, {kItem, kAuthor});
  add(proc::kBestSellers, best_sellers, true, {kOrders, kOrderLine, kItem, kAuthor});
  add(proc::kProductDetail, product_detail, true, {kItem, kAuthor});
  add(proc::kSearchRequest, search_request, true, {kItem});
  add(proc::kSearchResults, search_results, true, {kItem, kAuthor});
  add(proc::kOrderInquiry, order_inquiry, true, {kCustomer});
  add(proc::kOrderDisplay, order_display, true,
      {kOrders, kOrderLine, kItem, kAddress, kCountry, kCcXacts});
  add(proc::kAdminRequest, admin_request, true, {kItem});
  add(proc::kShoppingCart, shopping_cart, false,
      {kShoppingCart, kShoppingCartLine, kItem});
  add(proc::kCustomerRegistration, customer_registration, false,
      {kCustomer, kAddress});
  add(proc::kBuyRequest, buy_request, false,
      {kCustomer, kAddress, kShoppingCartLine});
  add(proc::kBuyConfirm, buy_confirm, false,
      {kShoppingCart, kShoppingCartLine, kOrders, kOrderLine, kCcXacts,
       kItem, kCustomer});
  add(proc::kAdminConfirm, admin_confirm, false, {kItem, kOrders, kOrderLine});
  return reg;
}

const std::vector<MixEntry>& mix_table(Mix mix) {
  // Standard TPC-W interaction frequencies (percent). Updates sum to
  // ~4.35 / ~18.5 / ~49.4 — the paper's 5 / 20 / 50.
  static const std::vector<MixEntry> kBrowsing{
      {proc::kHome, 29.00, false},          {proc::kNewProducts, 11.00, false},
      {proc::kBestSellers, 11.00, false},   {proc::kProductDetail, 21.00, false},
      {proc::kSearchRequest, 12.00, false}, {proc::kSearchResults, 11.00, false},
      {proc::kShoppingCart, 2.00, true},    {proc::kCustomerRegistration, 0.82, true},
      {proc::kBuyRequest, 0.75, true},      {proc::kBuyConfirm, 0.69, true},
      {proc::kOrderInquiry, 0.30, false},   {proc::kOrderDisplay, 0.25, false},
      {proc::kAdminRequest, 0.10, false},   {proc::kAdminConfirm, 0.09, true}};
  static const std::vector<MixEntry> kShopping{
      {proc::kHome, 16.00, false},          {proc::kNewProducts, 5.00, false},
      {proc::kBestSellers, 5.00, false},    {proc::kProductDetail, 17.00, false},
      {proc::kSearchRequest, 20.00, false}, {proc::kSearchResults, 17.00, false},
      {proc::kShoppingCart, 11.60, true},   {proc::kCustomerRegistration, 3.00, true},
      {proc::kBuyRequest, 2.60, true},      {proc::kBuyConfirm, 1.20, true},
      {proc::kOrderInquiry, 0.75, false},   {proc::kOrderDisplay, 0.69, false},
      {proc::kAdminRequest, 0.10, false},   {proc::kAdminConfirm, 0.09, true}};
  static const std::vector<MixEntry> kOrdering{
      {proc::kHome, 9.12, false},           {proc::kNewProducts, 0.46, false},
      {proc::kBestSellers, 0.46, false},    {proc::kProductDetail, 12.35, false},
      {proc::kSearchRequest, 14.53, false}, {proc::kSearchResults, 13.08, false},
      {proc::kShoppingCart, 13.53, true},   {proc::kCustomerRegistration, 12.86, true},
      {proc::kBuyRequest, 12.73, true},     {proc::kBuyConfirm, 10.18, true},
      {proc::kOrderInquiry, 1.25, false},   {proc::kOrderDisplay, 0.22, false},
      {proc::kAdminRequest, 0.12, false},   {proc::kAdminConfirm, 0.11, true}};
  switch (mix) {
    case Mix::Browsing:
      return kBrowsing;
    case Mix::Shopping:
      return kShopping;
    case Mix::Ordering:
      return kOrdering;
  }
  return kShopping;
}

double write_fraction(Mix mix) {
  double w = 0, total = 0;
  for (const auto& e : mix_table(mix)) {
    total += e.weight;
    if (e.is_write) w += e.weight;
  }
  return w / total;
}

const char* mix_name(Mix mix) {
  switch (mix) {
    case Mix::Browsing:
      return "browsing";
    case Mix::Shopping:
      return "shopping";
    case Mix::Ordering:
      return "ordering";
  }
  return "?";
}

}  // namespace dmv::tpcw
