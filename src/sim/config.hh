/**
 * @file
 * Typed key=value configuration store with dotted namespaces.
 *
 * A Config is a flat map from dotted names ("iq.entries") to string
 * values with typed accessors. Consumers read through get<T>(key,
 * default); the set of keys actually read is recorded so a run can dump
 * its effective configuration, and unread explicitly-set keys can be
 * flagged as probable typos.
 */

#ifndef LOOPSIM_SIM_CONFIG_HH
#define LOOPSIM_SIM_CONFIG_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace loopsim
{

class Config
{
  public:
    Config() = default;

    /** Set a key from a raw string value. */
    void set(const std::string &key, const std::string &value);

    /** Convenience typed setters. */
    void setInt(const std::string &key, std::int64_t value);
    void setUint(const std::string &key, std::uint64_t value);
    void setDouble(const std::string &key, double value);
    void setBool(const std::string &key, bool value);

    /** Parse "a.b=c" assignments; fatal() on malformed input or a
     *  retired key (removedKeyReason(), base/options.hh). */
    void parseAssignment(const std::string &assignment);
    /** Parse a list of "k=v" strings, e.g.\ CLI arguments. */
    void parseArgs(const std::vector<std::string> &args);

    bool has(const std::string &key) const;

    /**
     * Typed getters with defaults. Reading records the key and its
     * effective value for later dumping. fatal() on unconvertible text.
     */
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    std::uint64_t getUint(const std::string &key, std::uint64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;
    std::string getString(const std::string &key,
                          const std::string &def) const;

    /** Keys explicitly set but never read (likely typos). */
    std::vector<std::string> unreadKeys() const;

    /** Every key that was read, with its effective value. */
    void dumpEffective(std::ostream &os) const;

    /** Merge @p other on top of this config (other wins). */
    void overlay(const Config &other);

    /**
     * All explicitly-set keys with their raw values, in sorted key
     * order. This is the store's fingerprint canonicalization: a fully
     * overlaid Config exposes one flat sorted map, so the hash cannot
     * depend on how the same assignments were spread across overlays.
     */
    const std::map<std::string, std::string> &entries() const;

    /** entries() rendered one "key = value" per line (debugging, and
     *  the store CLI's record provenance dump). */
    std::string canonicalText() const;

  private:
    std::map<std::string, std::string> values;
    mutable std::map<std::string, std::string> effective;
    mutable std::set<std::string> readKeys;
};

} // namespace loopsim

#endif // LOOPSIM_SIM_CONFIG_HH
