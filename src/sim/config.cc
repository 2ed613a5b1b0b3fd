#include "sim/config.hh"

#include <cstdlib>

#include "base/logging.hh"
#include "base/options.hh"
#include "base/str.hh"

namespace loopsim
{

void
Config::set(const std::string &key, const std::string &value)
{
    fatal_if(key.empty(), "empty config key");
    values[key] = value;
}

void
Config::setInt(const std::string &key, std::int64_t value)
{
    set(key, std::to_string(value));
}

void
Config::setUint(const std::string &key, std::uint64_t value)
{
    set(key, std::to_string(value));
}

void
Config::setDouble(const std::string &key, double value)
{
    set(key, formatDouble(value, 9));
}

void
Config::setBool(const std::string &key, bool value)
{
    set(key, value ? "true" : "false");
}

void
Config::parseAssignment(const std::string &assignment)
{
    auto pos = assignment.find('=');
    fatal_if(pos == std::string::npos,
             "malformed config assignment (need k=v): ", assignment);
    std::string key = trim(assignment.substr(0, pos));
    std::string value = trim(assignment.substr(pos + 1));
    fatal_if(key.empty(), "empty key in assignment: ", assignment);
    if (const char *why = removedKeyReason(key))
        fatal("config key ", key, " ", why);
    set(key, value);
}

void
Config::parseArgs(const std::vector<std::string> &args)
{
    for (const auto &a : args)
        parseAssignment(a);
}

bool
Config::has(const std::string &key) const
{
    return values.count(key) != 0;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t def) const
{
    readKeys.insert(key);
    auto it = values.find(key);
    if (it == values.end()) {
        effective[key] = std::to_string(def);
        return def;
    }
    char *end = nullptr;
    long long v = std::strtoll(it->second.c_str(), &end, 0);
    fatal_if(end == it->second.c_str() || *end != '\0',
             "config key ", key, " is not an integer: ", it->second);
    effective[key] = it->second;
    return v;
}

std::uint64_t
Config::getUint(const std::string &key, std::uint64_t def) const
{
    std::int64_t v = getInt(key, static_cast<std::int64_t>(def));
    fatal_if(v < 0, "config key ", key, " must be non-negative");
    return static_cast<std::uint64_t>(v);
}

double
Config::getDouble(const std::string &key, double def) const
{
    readKeys.insert(key);
    auto it = values.find(key);
    if (it == values.end()) {
        effective[key] = formatDouble(def, 9);
        return def;
    }
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    fatal_if(end == it->second.c_str() || *end != '\0',
             "config key ", key, " is not a number: ", it->second);
    effective[key] = it->second;
    return v;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    readKeys.insert(key);
    auto it = values.find(key);
    if (it == values.end()) {
        effective[key] = def ? "true" : "false";
        return def;
    }
    std::string v = toLower(trim(it->second));
    effective[key] = v;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("config key ", key, " is not a boolean: ", it->second);
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    readKeys.insert(key);
    auto it = values.find(key);
    std::string v = it == values.end() ? def : it->second;
    effective[key] = v;
    return v;
}

std::vector<std::string>
Config::unreadKeys() const
{
    std::vector<std::string> out;
    for (const auto &[k, v] : values) {
        if (!readKeys.count(k))
            out.push_back(k);
    }
    return out;
}

void
Config::dumpEffective(std::ostream &os) const
{
    for (const auto &[k, v] : effective)
        os << k << " = " << v << "\n";
}

void
Config::overlay(const Config &other)
{
    for (const auto &[k, v] : other.values)
        values[k] = v;
}

const std::map<std::string, std::string> &
Config::entries() const
{
    return values;
}

std::string
Config::canonicalText() const
{
    std::string out;
    for (const auto &[k, v] : values) {
        out += k;
        out += " = ";
        out += v;
        out += "\n";
    }
    return out;
}

} // namespace loopsim
